package memscale

import (
	"context"
	"errors"
	"fmt"
	"io"

	"memscale/internal/checkpoint"
	"memscale/internal/runner"
	"memscale/internal/sim"
)

// Checkpoint/restore: capture a run's complete simulation state at an
// epoch boundary and continue it later — crash recovery for
// long-horizon runs. A resumed run is bit-identical to the
// uninterrupted one: every energy accumulator, CPI ratio, and frequency
// residency restores to the exact bit pattern (see DESIGN.md §4i).

// CheckpointSchemaVersion is the checkpoint container format version
// ("MAJOR.MINOR") stamped on every container CheckpointRun writes.
// ResumeRun accepts any container whose major version matches and
// rejects the rest with a *CheckpointSchemaVersionError.
const CheckpointSchemaVersion = checkpoint.SchemaVersion

// ErrCorruptCheckpoint reports checkpoint bytes that do not parse as a
// container: truncation, wrong magic, malformed JSON. Matched with
// errors.Is.
var ErrCorruptCheckpoint = checkpoint.ErrCorruptCheckpoint

// CheckpointSchemaVersionError is the typed error ResumeRun returns
// for a container written by an incompatible (different-major) schema
// version; match it with errors.As.
type CheckpointSchemaVersionError = checkpoint.SchemaVersionError

// CheckpointRun executes rc exactly like RunContext and additionally
// writes a checkpoint container to w capturing the run's full state
// after atEpoch epochs (0 selects the final epoch, making the
// container a pure resume point for extending the run). The returned
// summary is bit-identical to RunContext with the same rc.
func CheckpointRun(ctx context.Context, rc RunConfig, atEpoch int, w io.Writer) (RunSummary, error) {
	return CheckpointRunInterruptible(ctx, rc, atEpoch, nil, w)
}

// CheckpointRunInterruptible is CheckpointRun with a soft-stop signal:
// when stop fires (a closed or signaled channel — wire it to
// SIGINT/SIGTERM in a CLI), the run finishes its current epoch, writes
// the state at that boundary to w as its final checkpoint, and returns
// ErrInterrupted; resume the container with ResumeRun to finish the
// run, bit-identical to the uninterrupted one. A run that completes
// without interruption behaves exactly like CheckpointRun.
func CheckpointRunInterruptible(ctx context.Context, rc RunConfig, atEpoch int, stop <-chan struct{}, w io.Writer) (RunSummary, error) {
	if err := rc.Validate(); err != nil {
		return RunSummary{}, err
	}
	rc = rc.withDefaults()
	if atEpoch == 0 {
		atEpoch = rc.Epochs
	}
	if atEpoch < 0 || atEpoch > rc.Epochs {
		return RunSummary{}, fmt.Errorf("%w: checkpoint.at_epoch: must be in [1, %d] (0 selects the final epoch), got %d",
			ErrInvalidConfig, rc.Epochs, atEpoch)
	}
	job, err := rc.job()
	if err != nil {
		return RunSummary{}, err
	}
	job.Interrupt = stop
	out, ck, err := runner.New(runner.Options{Workers: 1}).RunWithCheckpoint(ctx, job, atEpoch)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return RunSummary{}, err
	}
	// The checkpoint is written in both outcomes: at atEpoch when the
	// run completed, at the interrupt boundary when it stopped early.
	if werr := checkpoint.Encode(w, ck); werr != nil {
		return RunSummary{}, fmt.Errorf("write checkpoint: %w", werr)
	}
	if err != nil {
		return RunSummary{}, err
	}
	return summarize(out), nil
}

// ResumeRun reads a checkpoint container from r and continues the run
// to epochs total OS quanta (counting the epochs already completed at
// the snapshot), pairing it against the cold baseline of the full
// length. The summary is bit-identical to the uninterrupted run of the
// same configuration. Containers written by earlier releases' parallel
// engine (residue-class sequence numbers, a dense node arena) load the
// same way.
//
// Corrupted containers fail with ErrCorruptCheckpoint, incompatible
// schema versions with a *CheckpointSchemaVersionError, and a
// container whose state does not fit the run it describes (hand-edited
// geometry, a meta policy other than the one that wrote it, or a fault
// schedule written by an earlier release's fault-injection plane) with
// ErrInvalidConfig.
func ResumeRun(ctx context.Context, r io.Reader, epochs int) (RunSummary, error) {
	sum, err := resumeRun(ctx, r, epochs)
	if errors.Is(err, sim.ErrStateMismatch) {
		return RunSummary{}, fmt.Errorf("%w: checkpoint: %w", ErrInvalidConfig, err)
	}
	return sum, err
}

func resumeRun(ctx context.Context, r io.Reader, epochs int) (RunSummary, error) {
	ck, err := checkpoint.Decode(r)
	if err != nil {
		return RunSummary{}, err
	}
	if epochs <= ck.Meta.Epochs {
		return RunSummary{}, fmt.Errorf("%w: resume.epochs: must exceed the checkpoint's completed %d, got %d",
			ErrInvalidConfig, ck.Meta.Epochs, epochs)
	}
	if err := runner.CheckRunLength("resume.epochs", epochs, &ck.Config); err != nil {
		return RunSummary{}, err
	}
	out, err := runner.New(runner.Options{Workers: 1}).Resume(ctx, runner.ResumeJob{
		Checkpoint: ck,
		Epochs:     epochs,
	})
	if err != nil {
		return RunSummary{}, err
	}
	return summarize(out), nil
}
