// Package exp reproduces the paper's evaluation: one driver per table
// and figure (Table 1-2, Figures 2, 5-15, and the Section 4.2.4 extra
// studies). Each driver runs the relevant workload x policy grid on
// the simulator and renders the same rows/series the paper reports,
// as ASCII tables and optional CSV.
//
// The grids execute on the internal/runner engine: jobs of one figure
// run concurrently on a worker pool, and the unmanaged baseline runs
// they share are simulated once and memoized across figures.
package exp

import (
	"context"
	"fmt"
	"io"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/sim"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// Params scale the experiments. The defaults run each (mix, policy)
// pair for 10 OS quanta (50 ms of simulated time), long enough for the
// slack controller to settle; the full reproduction then took 8m02s of
// wall time (14 CPU-minutes) on a 2-vCPU Intel Xeon host. The paper's
// trends are stable at this scale.
type Params struct {
	// Epochs is the number of OS quanta per run.
	Epochs int

	// TimelineEpochs is the run length of the Figure 7/8 timelines.
	TimelineEpochs int

	// Gamma is the allowed performance degradation (default 0.10).
	Gamma float64

	// Workers bounds the number of concurrently executing runs per
	// grid, and of mixes Table 1 and Figure 2 work on at once; zero
	// means GOMAXPROCS. Parallelism never changes results: each
	// simulation is single-threaded and deterministic, and results are
	// ordered by submission, not completion.
	Workers int

	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer

	// Ctx, when non-nil, cancels in-flight simulations; drivers return
	// its error once it fires.
	Ctx context.Context

	// cache memoizes baseline runs across figures: many experiments
	// share the exact same unmanaged run (the baseline is independent
	// of policy and of gamma), so re-simulating it per pair would
	// dominate the harness run time.
	cache *runner.BaselineCache
}

// DefaultParams returns the standard experiment scale.
func DefaultParams() Params {
	return Params{
		Epochs:         10,
		TimelineEpochs: 20,
		Gamma:          0.10,
		cache:          runner.NewBaselineCache(),
	}
}

func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// engine builds the sweep engine for one grid, sharing the baseline
// cache across all grids run from this Params (copies included:
// sensitivity drivers derive variants with `q := p`, and the pointer
// travels with them).
func (p Params) engine() *runner.Engine {
	var onResult func(runner.Progress)
	if p.Progress != nil {
		onResult = func(pr runner.Progress) {
			if pr.Err != nil {
				p.logf("  %-8s %-20s error: %v", pr.Job.Mix.Name, pr.Job.Spec.Name, pr.Err)
				return
			}
			out := pr.Outcome
			p.logf("  %-8s %-20s mem %-7s sys %-7s", out.Mix.Name, out.Policy,
				stats.Pct(out.MemorySavings()), stats.Pct(out.SystemSavings()))
		}
	}
	return runner.New(runner.Options{
		Workers:  p.Workers,
		Cache:    p.cache,
		OnResult: onResult,
	})
}

// job assembles one engine job at this Params' scale.
func (p Params) job(mutate func(*config.Config), mix workload.Mix, spec policies.Spec) runner.Job {
	return runner.Job{
		Mix:    mix,
		Spec:   spec,
		Epochs: p.Epochs,
		Gamma:  p.Gamma,
		Mutate: mutate,
	}
}

// runGrid executes a batch of jobs concurrently, returning outcomes in
// job order.
func (p Params) runGrid(jobs []runner.Job) ([]runner.Outcome, error) {
	return p.engine().RunAll(p.ctx(), jobs)
}

func (p Params) logf(format string, args ...any) {
	if p.Progress != nil {
		fmt.Fprintf(p.Progress, format+"\n", args...)
	}
}

// Report is one rendered experiment.
type Report struct {
	ID    string // e.g. "figure5"
	Title string
	Table stats.Table
}

// Render writes the report's table to w.
func (r Report) Render(w io.Writer) { r.Table.Render(w) }

// Outcome is one (mix, policy) run paired with its baseline; see
// runner.Outcome for the savings/CPI metrics.
type Outcome = runner.Outcome

// runBaseline runs the mix with the unmanaged memory system and
// derives the rest-of-system power from its average DIMM power.
// Results are memoized in the shared baseline cache: the baseline
// depends only on the configuration and mix (gamma is irrelevant — no
// governor runs), and many experiments revisit the same pair.
func (p Params) runBaseline(cfg config.Config, mix workload.Mix) (sim.Result, float64, error) {
	cache := p.cache
	if cache == nil {
		cache = runner.NewBaselineCache()
	}
	return cache.Baseline(p.ctx(), cfg, mix, p.Epochs, 0)
}

// forEachMix runs fn for every Table 1 mix on at most p.Workers
// goroutines; fn stores its result in the mix's slot. logDone runs for
// each mix fn finished without error, in completion order, one at a
// time. It returns the first error in mix order.
func (p Params) forEachMix(fn func(i int, mix workload.Mix) error, logDone func(i int)) error {
	errs := runner.ForEach(p.ctx(), p.Workers, len(workload.Mixes), func(_ context.Context, i int) error {
		return fn(i, workload.Mixes[i])
	}, func(_, i int, err error) {
		if err == nil {
			logDone(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
