// Package memscale is a library-scale reproduction of "MemScale:
// Active Low-Power Modes for Main Memory" (Deng, Meisner, Ramos,
// Wenisch, Bianchini — ASPLOS 2011).
//
// It bundles a discrete-event DDR3 memory-system simulator (devices,
// controller, counters, power), an in-order multicore front end fed by
// synthetic SPEC-like traces, the MemScale OS energy-management policy
// with its counter-driven performance and energy models, and the
// baseline schemes the paper compares against (Fast-PD, Slow-PD,
// Decoupled DIMMs, Static frequency).
//
// The top-level API runs (workload, policy) pairs against the
// unmanaged baseline and reports paired energy/performance outcomes:
//
//	sum, err := memscale.RunContext(ctx, memscale.RunConfig{Mix: "MID1", Policy: "MemScale"})
//	fmt.Printf("system energy savings: %.1f%%\n", sum.SystemSavings*100)
//
// Grids of runs go through Sweep, which executes jobs concurrently on
// a worker pool and simulates each distinct baseline exactly once:
//
//	sums, err := memscale.Sweep(ctx, memscale.SweepConfig{
//		Runs: memscale.Grid(memscale.RunConfig{}, memscale.Mixes(), memscale.Policies()),
//	})
//
// For the full evaluation (every table and figure of the paper), see
// the Experiments API and cmd/memscale-repro.
package memscale

import (
	"context"
	"fmt"
	"io"

	"memscale/internal/checkpoint"
	"memscale/internal/invariant"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// Version of the library.
const Version = "1.3.0"

// Typed sentinel errors. Failures wrap these with %w, so callers can
// classify them with errors.Is regardless of message detail:
//
//	if errors.Is(err, memscale.ErrUnknownMix) { ... }
var (
	// ErrUnknownMix reports a RunConfig.Mix outside the Table 1 names.
	ErrUnknownMix = workload.ErrUnknownMix

	// ErrUnknownPolicy reports a RunConfig.Policy outside Policies().
	ErrUnknownPolicy = policies.ErrUnknownPolicy

	// ErrInvalidConfig reports a RunConfig or FleetConfig whose scaling
	// fields are degenerate (negative epoch/core/channel counts,
	// out-of-range gamma, or a machine shape the simulator rejects).
	ErrInvalidConfig = runner.ErrInvalidConfig

	// ErrRunPanicked reports a run whose simulation panicked. The
	// worker recovered: in a Sweep the other jobs are unaffected, and
	// the error chain carries the panic value and stack
	// (*runner.PanicError).
	ErrRunPanicked = runner.ErrRunPanicked

	// ErrInvariant reports a runtime invariant violation: one of the
	// always-on self-checks (energy conservation, residency accounting,
	// slack ledger bounds, cap-within-budget) found simulator state
	// that should be impossible. The chain carries an
	// *InvariantViolation naming the check.
	ErrInvariant = invariant.ErrInvariant

	// ErrInterrupted reports a run or fleet stopped early by a
	// soft-stop signal (SIGINT/SIGTERM in the CLIs): a single run after
	// writing its final checkpoint, a fleet with its partial summary.
	ErrInterrupted = checkpoint.ErrInterrupted
)

// InvariantViolation is the typed error carried by every ErrInvariant
// failure: Name identifies the check ("energy_conservation",
// "residency_epoch_sum", "slack_ledger", "cap_within_budget",
// "resume_epoch"), Detail the observed state. Match with errors.As.
type InvariantViolation = invariant.Violation

// RunConfig selects and scales one simulation.
type RunConfig struct {
	// Mix is a Table 1 workload name: ILP1-4, MID1-4, MEM1-4.
	Mix string

	// Policy is a scheme name as listed by Policies(): "Baseline",
	// "Fast-PD", "Slow-PD", "Decoupled", "Static", "MemScale",
	// "MemScale (MemEnergy)", "MemScale + Fast-PD".
	Policy string

	// Epochs is the run length in 5 ms OS quanta (default 10). A run
	// may last at most sim.MaxEpochs quanta: 22,906 (about 115
	// simulated seconds) on the default four channels, proportionally
	// more on fewer; Validate rejects longer runs.
	Epochs int

	// Gamma is the maximum allowed performance degradation
	// (default 0.10).
	Gamma float64

	// Cores overrides the core count (default 16); Channels overrides
	// the channel count (default 4).
	Cores    int
	Channels int

	// Timeline retains per-epoch frequency/CPI records.
	Timeline bool

	// Telemetry, when non-nil, instruments the managed run with the
	// telemetry subsystem and attaches the export to the summary.
	Telemetry *TelemetryConfig
}

// TelemetryConfig opts a run into telemetry collection. The zero value
// enables collectors and per-epoch snapshots only; Events additionally
// captures the structured event stream.
type TelemetryConfig struct {
	// Events enables the event stream (frequency transitions, powerdown
	// entry/exit, refreshes, slack updates, governor decisions).
	// The recorder retains the newest 4096 events and reports how many
	// older ones it dropped on the export.
	Events bool
}

func (tc *TelemetryConfig) options() *telemetry.Options {
	if tc == nil {
		return nil
	}
	return &telemetry.Options{Events: tc.Events}
}

// Validate rejects degenerate scaling values up front, before any
// simulation runs. Every failure wraps ErrInvalidConfig and names the
// offending field with a snake_case path (e.g. "gamma",
// "channels"), so callers can both classify with errors.Is
// and surface the exact field to users. Zero values are allowed: they
// select the documented defaults. Run, RunContext, and Sweep all call
// Validate internally; calling it directly is only needed to check a
// configuration without running it.
func (rc RunConfig) Validate() error {
	_, err := runner.Machine("", rc.Epochs, rc.Gamma, rc.Cores, rc.Channels)
	return err
}

// withDefaults fills the documented defaults into zero fields.
func (rc RunConfig) withDefaults() RunConfig {
	if rc.Epochs == 0 {
		rc.Epochs = 10
	}
	if rc.Gamma == 0 {
		rc.Gamma = 0.10
	}
	if rc.Policy == "" {
		rc.Policy = "MemScale"
	}
	return rc
}

// job resolves a validated, defaulted RunConfig into an engine job.
func (rc RunConfig) job() (runner.Job, error) {
	mix, err := workload.ByName(rc.Mix)
	if err != nil {
		return runner.Job{}, err
	}
	spec, err := policies.ByName(rc.Policy)
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{
		Mix:       mix,
		Spec:      spec,
		Epochs:    rc.Epochs,
		Gamma:     rc.Gamma,
		Cores:     rc.Cores,
		Channels:  rc.Channels,
		Timeline:  rc.Timeline,
		Telemetry: rc.Telemetry.options(),
	}, nil
}

// EpochSample is one OS quantum of a timeline run: the telemetry
// layer's per-epoch snapshot, exposed directly so the timeline, the
// telemetry export, and memscale-report all read the same record. Use
// the StartMs/EndMs/BusFreqMHz methods for the derived views the old
// fields of the same names provided.
type EpochSample = telemetry.EpochSnapshot

// TelemetryExport is one run's full telemetry: totals, collector
// snapshots, per-epoch samples, and retained events.
type TelemetryExport = telemetry.RunExport

// TelemetryRollup aggregates exports across runs.
type TelemetryRollup = telemetry.Rollup

// RunSummary reports one run paired against its baseline.
type RunSummary struct {
	Mix    string
	Policy string

	DurationSeconds float64

	// Energy (joules) of the managed run.
	MemoryEnergyJ float64
	SystemEnergyJ float64

	// Savings relative to the unmanaged baseline.
	MemorySavings float64
	SystemSavings float64

	// CPI degradation relative to the baseline: multiprogram average
	// and worst application (the Figure 6 metrics).
	AvgCPIIncrease   float64
	WorstCPIIncrease float64

	// FreqSeconds is the time spent at each bus frequency (MHz).
	FreqSeconds map[int]float64

	// Timeline, when requested, holds the per-epoch records.
	Timeline []EpochSample

	// Telemetry, when the run requested it, holds the full export.
	Telemetry *TelemetryExport

	// Events is the number of simulation events the managed run fired —
	// the unit benchmarks normalize throughput against (events/op).
	Events uint64

	// InvariantChecks counts the runtime invariant plane's always-on
	// assertions the managed run passed (energy conservation, residency
	// accounting, slack ledger bounds); a violated invariant fails the
	// run with an error matching ErrInvariant instead.
	InvariantChecks uint64
}

// Mixes returns the Table 1 workload names.
func Mixes() []string { return workload.Names() }

// Policies returns the scheme names accepted by RunConfig.Policy.
func Policies() []string { return policies.Names() }

// Run executes one (mix, policy) pair and its baseline, returning the
// paired summary. Runs are deterministic: the same RunConfig always
// produces identical results.
//
// Deprecated: Run is a thin wrapper over RunContext with
// context.Background(), kept so existing callers compile unchanged.
// New code should use RunContext (cancellable single runs) or Sweep
// (parallel grids with baseline sharing).
func Run(rc RunConfig) (RunSummary, error) {
	return RunContext(context.Background(), rc)
}

// RunContext executes one (mix, policy) pair and its baseline under
// ctx, returning the paired summary. Cancellation is honoured
// mid-simulation: the run returns promptly with ctx.Err(). An
// uncancelled run is deterministic and bit-identical to the same
// RunConfig executed anywhere else — inside a Sweep, on any worker
// count, or via the deprecated Run.
func RunContext(ctx context.Context, rc RunConfig) (RunSummary, error) {
	if err := rc.Validate(); err != nil {
		return RunSummary{}, err
	}
	job, err := rc.withDefaults().job()
	if err != nil {
		return RunSummary{}, err
	}
	out, err := runner.New(runner.Options{Workers: 1}).Run(ctx, job)
	if err != nil {
		return RunSummary{}, err
	}
	return summarize(out), nil
}

// summarize folds a paired outcome into the public summary. The
// savings/CPI metrics guard degenerate zero-energy and zero-CPI
// baselines (see runner.Outcome), so a RunSummary never carries
// NaN/Inf.
func summarize(out runner.Outcome) RunSummary {
	res := out.Res
	sum := RunSummary{
		Mix:             out.Mix.Name,
		Policy:          out.Policy,
		DurationSeconds: res.Duration.Seconds(),
		MemoryEnergyJ:   res.Memory.Memory(),
		SystemEnergyJ:   out.SystemEnergy(res),
		MemorySavings:   out.MemorySavings(),
		SystemSavings:   out.SystemSavings(),
		FreqSeconds:     map[int]float64{},
	}
	sum.AvgCPIIncrease, sum.WorstCPIIncrease = out.CPIIncrease()

	for f, t := range res.FreqTime {
		sum.FreqSeconds[int(f)] = t.Seconds()
	}
	// The simulator's epoch records are telemetry snapshots already;
	// expose them as-is.
	sum.Timeline = append(sum.Timeline, res.Epochs...)
	sum.Telemetry = out.Telemetry
	sum.Events = res.Events
	sum.InvariantChecks = res.InvariantChecks
	return sum
}

// WriteTelemetry streams the summaries' telemetry exports to w in the
// JSONL interchange format memscale-report reads. Summaries without
// telemetry are skipped.
func WriteTelemetry(w io.Writer, sums ...RunSummary) error {
	exports := make([]*TelemetryExport, 0, len(sums))
	for _, s := range sums {
		if s.Telemetry != nil {
			exports = append(exports, s.Telemetry)
		}
	}
	return telemetry.WriteJSONL(w, exports...)
}

// TelemetrySchemaVersion is the JSONL interchange format version
// ("MAJOR.MINOR") that WriteTelemetry stamps on every run record.
// Minor bumps only add fields, which older readers ignore; a major
// bump means the record shapes changed incompatibly. ReadTelemetry
// therefore accepts any stream whose major version matches its own
// (including unversioned pre-1.1 streams, which read as "1.0") and
// rejects the rest with a *SchemaVersionError.
const TelemetrySchemaVersion = telemetry.SchemaVersion

// SchemaVersionError is the typed error ReadTelemetry returns for a
// stream written by an incompatible (different-major) schema version;
// match it with errors.As.
type SchemaVersionError = telemetry.SchemaVersionError

// ReadTelemetry parses a JSONL telemetry stream written by
// WriteTelemetry (or by cmd/memscale-sim's -telemetry-out flag).
// Streams from an incompatible schema major version fail with a
// *SchemaVersionError (see TelemetrySchemaVersion).
func ReadTelemetry(r io.Reader) ([]*TelemetryExport, error) {
	return telemetry.ReadJSONL(r)
}

// AggregateTelemetry merges the summaries' telemetry exports into one
// rollup: summed totals and counters, merged histograms. Aggregation
// is race-free regardless of how the runs executed: every run owns a
// private recorder, and the rollup is built here, after completion.
func AggregateTelemetry(sums ...RunSummary) *TelemetryRollup {
	ro := telemetry.NewRollup()
	for _, s := range sums {
		ro.Add(s.Telemetry)
	}
	return ro
}

// String renders a one-line summary.
func (s RunSummary) String() string {
	return fmt.Sprintf("%s/%s: system %+.1f%%, memory %+.1f%%, CPI +%.1f%% (worst +%.1f%%)",
		s.Mix, s.Policy, s.SystemSavings*100, s.MemorySavings*100,
		s.AvgCPIIncrease*100, s.WorstCPIIncrease*100)
}
