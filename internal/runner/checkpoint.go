package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/invariant"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// This file is the engine's checkpoint plane: checkpoint/resume for
// long-horizon runs that must survive interruption.

// ErrInterrupted reports a checkpoint-driven run stopped early through
// Job.Interrupt after capturing its state at the epoch boundary it
// halted on. Matched with errors.Is (it wraps the checkpoint plane's
// shared checkpoint.ErrInterrupted sentinel).
var ErrInterrupted = fmt.Errorf("runner: %w", checkpoint.ErrInterrupted)

// jobConfig derives the two configurations a job runs under: base is
// the configuration the unmanaged baseline pairs against (machine
// shape, gamma, and Mutate applied), cfg adds the policy's Configure
// hook on top. Keeping both matters for checkpointing — a resume must
// calibrate its baseline from base, not cfg, to reproduce the cold
// run's pairing exactly.
func jobConfig(job Job) (cfg, base config.Config) {
	cfg = machine(job.Gamma, job.Cores, job.Channels)
	if job.Mutate != nil {
		job.Mutate(&cfg)
	}
	base = cfg
	if job.Spec.Configure != nil {
		job.Spec.Configure(&cfg)
	}
	return cfg, base
}

// RunWithCheckpoint is Run with a mid-flight snapshot: the managed run
// executes epoch by epoch, captures its full state after ckEpoch
// epochs, and continues to job.Epochs. The returned checkpoint carries
// everything Resume needs — meta identifying the run, both
// configurations, and the state image — and the outcome is
// bit-identical to a plain Run of the same job (StepEpoch-driven runs
// reproduce RunFor's event sequence exactly).
func (e *Engine) RunWithCheckpoint(ctx context.Context, job Job, ckEpoch int) (out Outcome, ck *checkpoint.Checkpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, ck, err = Outcome{}, nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	if err := ctx.Err(); err != nil {
		return Outcome{}, nil, err
	}
	if job.Epochs <= 0 {
		return Outcome{}, nil, fmt.Errorf("runner: job epochs must be positive, got %d", job.Epochs)
	}
	if ckEpoch <= 0 || ckEpoch > job.Epochs {
		return Outcome{}, nil, fmt.Errorf("runner: checkpoint epoch %d outside run length [1,%d]", ckEpoch, job.Epochs)
	}
	cfg, baseCfg := jobConfig(job)
	p := &pairing{job: job, cfg: cfg, base: e.cache.claim(baseCfg, job.Mix, job.Epochs), ckEpoch: ckEpoch}
	defer p.base.release()
	r, err := e.pair(ctx, p)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return Outcome{}, nil, err
	}
	// Interrupted runs return the checkpoint of the boundary they
	// stopped on, with a zero Outcome.
	return r.out, &checkpoint.Checkpoint{
		Meta: checkpoint.Meta{
			Mix:     job.Mix.Name,
			Policy:  job.Spec.Name,
			Gamma:   cfg.Policy.Gamma,
			NonMem:  p.nonMem,
			Horizon: job.Epochs,
			Epochs:  r.snapEpochs,
		},
		Config: cfg,
		Base:   baseCfg,
		State:  r.snap,
	}, err
}

// stepRun drives s epoch by epoch to target, stopping exactly where
// RunForContext would, and captures the state after ckEpoch epochs.
// Once interrupt fires, it finishes the epoch just stepped and returns
// the state at that boundary, with the epochs it covers, and
// ErrInterrupted.
func stepRun(ctx context.Context, s *sim.System, interrupt <-chan struct{}, target config.Time, ckEpoch int) (sim.Result, *sim.SystemState, int, error) {
	var snap *sim.SystemState
	for {
		rec, err := s.StepEpoch(ctx)
		if err != nil {
			return sim.Result{}, nil, 0, err
		}
		if rec.Index+1 == ckEpoch {
			if snap, err = s.Save(); err != nil {
				return sim.Result{}, nil, 0, fmt.Errorf("runner: checkpoint save: %w", err)
			}
		}
		if rec.End >= target {
			break
		}
		select {
		case <-interrupt:
			if snap, err = s.Save(); err != nil {
				return sim.Result{}, nil, 0, fmt.Errorf("runner: interrupt checkpoint save: %w", err)
			}
			return sim.Result{}, snap, rec.Index + 1, ErrInterrupted
		default:
		}
	}
	res := s.Finalize()
	if snap == nil {
		return sim.Result{}, nil, 0, fmt.Errorf("runner: run ended before checkpoint epoch %d", ckEpoch)
	}
	return res, snap, ckEpoch, nil
}

// ResumeJob describes how to continue a checkpointed run.
type ResumeJob struct {
	// Checkpoint is the decoded container to resume from.
	Checkpoint *checkpoint.Checkpoint

	// Epochs is the total run length in OS quanta (including the
	// epochs already completed at the snapshot); it must exceed the
	// checkpoint's completed epoch count.
	Epochs int

	// Timeline and Telemetry mirror the Job fields: they instrument
	// the resumed portion.
	Timeline  bool
	Telemetry *telemetry.Options
}

// Resume continues a checkpointed run to rj.Epochs total epochs and
// pairs it against the cold unmanaged baseline of the full length,
// exactly as the original run would have been. A resumed run's result
// is bit-identical to the uninterrupted run of the same job. The
// container must resume under the policy that wrote it: a meta policy
// whose Configure hook does not turn the baseline configuration into
// the managed one, or whose governor differs from the saved state's,
// fails with sim.ErrStateMismatch, as does a meta NonMem that is not
// bit for bit the calibration of the baseline over the meta horizon.
func (e *Engine) Resume(ctx context.Context, rj ResumeJob) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = Outcome{}, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	ck := rj.Checkpoint
	if ck == nil || ck.State == nil {
		return Outcome{}, errors.New("runner: resume requires a checkpoint with state")
	}
	if rj.Epochs <= ck.Meta.Epochs {
		return Outcome{}, fmt.Errorf("runner: resume epochs (%d) must exceed the checkpoint's completed %d", rj.Epochs, ck.Meta.Epochs)
	}
	// Invariant: the container's meta and state image must agree on how
	// many epochs the snapshot covers — a mismatch means a hand-edited
	// or miswritten container, and resuming it would silently shift the
	// schedule.
	if err := invariant.Check("resume_epoch", ck.State.EpochIdx == ck.Meta.Epochs,
		"checkpoint meta records %d completed epochs but the state image is at epoch %d",
		ck.Meta.Epochs, ck.State.EpochIdx); err != nil {
		return Outcome{}, fmt.Errorf("runner: %w", err)
	}
	mix, err := workload.ByName(ck.Meta.Mix)
	if err != nil {
		return Outcome{}, fmt.Errorf("runner: resume: %w", err)
	}
	var spec policies.Spec
	if ck.Meta.Policy != "" {
		if spec, err = policies.ByName(ck.Meta.Policy); err != nil {
			return Outcome{}, fmt.Errorf("runner: resume: %w", err)
		}
	}
	// ck.Config is already post-Configure, so the hook must not run
	// again; it must, though, be the hook that produced ck.Config.
	cfg := ck.Base
	if spec.Configure != nil {
		spec.Configure(&cfg)
	}
	if cfg != ck.Config {
		return Outcome{}, fmt.Errorf("runner: resume: %w: checkpoint configuration is not policy %q's",
			sim.ErrStateMismatch, ck.Meta.Policy)
	}

	// The checkpoint fixes the rest-of-system power, so the resumed run
	// needs nothing from the baseline until the pairing.
	job := Job{
		Mix: mix, Spec: spec, Epochs: rj.Epochs,
		Timeline: rj.Timeline, Telemetry: rj.Telemetry,
	}
	p := &pairing{
		job: job, cfg: ck.Config, base: e.cache.claim(ck.Base, mix, rj.Epochs),
		restore: ck.State, nonMem: ck.Meta.NonMem, known: true,
	}
	defer p.base.release()
	// The baseline that calibrated NonMem is the pairing's own when the
	// resume runs to the horizon; otherwise it simulates alongside.
	calib := p.base
	if h := ck.Meta.Horizon; h > 0 && h != rj.Epochs {
		calib = e.cache.claim(ck.Base, mix, h)
		defer calib.release()
	}
	r, err := e.pair(ctx, p)
	if err == nil && ck.Meta.Horizon > 0 {
		if err = calib.wait(ctx); err == nil && math.Float64bits(calib.e.nonMem) != math.Float64bits(ck.Meta.NonMem) {
			err = fmt.Errorf("runner: resume: %w: meta non_mem_w %v is not the %d-epoch baseline's calibration %v",
				sim.ErrStateMismatch, ck.Meta.NonMem, ck.Meta.Horizon, calib.e.nonMem)
		}
	}
	if err != nil {
		return Outcome{}, err
	}
	return r.out, nil
}
