package memscale

import (
	"context"
	"errors"
	"fmt"

	"memscale/internal/runner"
)

// SweepConfig describes a batch of runs executed by Sweep.
type SweepConfig struct {
	// Runs is the job grid, one RunConfig per paired simulation.
	// Grid builds the common mix x policy cross products.
	Runs []RunConfig

	// Workers bounds the number of concurrently executing jobs;
	// zero means runtime.GOMAXPROCS(0). A job may briefly use a second
	// goroutine for its baseline, which simulates alongside the managed
	// run; results are bit-identical on any worker count.
	Workers int

	// Progress, when non-nil, is invoked once per finished job, in
	// completion order, from one goroutine at a time.
	Progress func(SweepProgress)
}

// SweepProgress reports one finished sweep job.
type SweepProgress struct {
	// Completed is the number of jobs finished so far (including this
	// one); Total is len(Runs).
	Completed, Total int

	// Index is the job's position in SweepConfig.Runs.
	Index int

	// Run is the job's configuration.
	Run RunConfig

	// Summary is the job's result; only valid when Err is nil.
	Summary RunSummary

	// Err is the job's failure, if any.
	Err error
}

// Grid returns the cross product of mixes x policies over base: every
// returned RunConfig is base with Mix and Policy replaced. Jobs are
// ordered mix-major, matching the figure presentation order.
func Grid(base RunConfig, mixes, policies []string) []RunConfig {
	out := make([]RunConfig, 0, len(mixes)*len(policies))
	for _, m := range mixes {
		for _, p := range policies {
			rc := base
			rc.Mix = m
			rc.Policy = p
			out = append(out, rc)
		}
	}
	return out
}

// Sweep executes every run in the grid on a worker pool, pairing each
// against its unmanaged baseline. The N runs that share one baseline
// configuration simulate it exactly once: baselines are memoized by
// their canonical config (gamma and policy excluded, since the
// baseline runs no governor).
//
// Summaries come back indexed like sc.Runs regardless of completion
// order, and are bit-identical to the same grid run serially. Errors
// are collected per job and joined: a failed or invalid run leaves a
// zero RunSummary at its index and contributes one wrapped error
// (match with errors.Is against ErrUnknownMix, ErrUnknownPolicy,
// ErrInvalidConfig, or ctx.Err()) without stopping the other jobs.
// Cancelling ctx stops the sweep promptly, mid-simulation if needed.
//
// An empty grid is an error, not a silent zero-job success: a Grid
// built from empty mix or policy lists (a typo'd filter, an empty
// flag) surfaces ErrInvalidConfig instead of returning no summaries
// with a nil error.
func Sweep(ctx context.Context, sc SweepConfig) ([]RunSummary, error) {
	if len(sc.Runs) == 0 {
		return nil, fmt.Errorf("%w: runs: sweep has no runs (Grid over empty mixes or policies produces none)",
			ErrInvalidConfig)
	}
	sums := make([]RunSummary, len(sc.Runs))
	errs := make([]error, len(sc.Runs))

	// Resolve and validate every job up front; invalid jobs are
	// reported without simulating anything.
	var jobs []runner.Job
	var jobIdx []int // jobs[k] corresponds to sc.Runs[jobIdx[k]]
	for i, rc := range sc.Runs {
		if err := rc.Validate(); err != nil {
			errs[i] = err
			continue
		}
		job, err := rc.withDefaults().job()
		if err != nil {
			errs[i] = err
			continue
		}
		jobs = append(jobs, job)
		jobIdx = append(jobIdx, i)
	}

	invalid := len(sc.Runs) - len(jobs)
	if sc.Progress != nil {
		n := 0
		for i, err := range errs {
			if err != nil {
				n++
				sc.Progress(SweepProgress{
					Completed: n, Total: len(sc.Runs),
					Index: i, Run: sc.Runs[i], Err: err,
				})
			}
		}
	}

	var onResult func(runner.Progress)
	if sc.Progress != nil {
		onResult = func(pr runner.Progress) {
			i := jobIdx[pr.Index]
			sp := SweepProgress{
				Completed: invalid + pr.Done, Total: len(sc.Runs),
				Index: i, Run: sc.Runs[i], Err: pr.Err,
			}
			if pr.Err == nil {
				sp.Summary = summarize(pr.Outcome)
			}
			sc.Progress(sp)
		}
	}

	eng := runner.New(runner.Options{Workers: sc.Workers, OnResult: onResult})
	outs, runErrs := eng.RunEach(ctx, jobs)
	for k, out := range outs {
		i := jobIdx[k]
		if runErrs[k] != nil {
			errs[i] = runErrs[k]
			continue
		}
		sums[i] = summarize(out)
	}

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("run %d (%s/%s): %w",
				i, sc.Runs[i].Mix, sc.Runs[i].Policy, err))
		}
	}
	return sums, errors.Join(joined...)
}
