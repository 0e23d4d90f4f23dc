// Package runner is the parallel sweep/batch execution engine behind
// the public Run/Sweep API and the experiment harness. It schedules
// (mix, policy, gamma, epochs, cores, channels) jobs onto a bounded
// worker pool, memoizes the unmanaged baseline runs the jobs share,
// and honours context cancellation mid-simulation.
//
// Each job simulates its baseline on a second goroutine, owned by the
// baseline cache, while its managed run proceeds; the managed run gets
// by without the baseline's calibrated rest-of-system power until the
// pairing needs it (see pairing).
//
// Determinism: each simulation is the same discrete-event run it always
// was, and a managed run that overlaps its baseline is confirmed to be
// the run a serial pairing would have produced, so one job's result is
// bit-identical whether the batch ran on one worker or sixteen, with a
// cold cache or a warm one. Results come back indexed by submission
// order, never by completion order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/stats"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// ErrRunPanicked marks a job whose simulation panicked, matched with
// errors.Is. The worker recovered, so one poisoned job never takes
// down the batch; the concrete error is a *PanicError carrying the
// value and stack.
var ErrRunPanicked = errors.New("run panicked")

// PanicError is the error a recovered job panic is reported as. It
// unwraps to ErrRunPanicked.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("runner: run panicked: %v", p.Value) }

// Unwrap lets errors.Is(err, ErrRunPanicked) match.
func (p *PanicError) Unwrap() error { return ErrRunPanicked }

// Job is one paired simulation: a (mix, policy) pair run against the
// memoized unmanaged baseline of the same configuration.
type Job struct {
	Mix  workload.Mix
	Spec policies.Spec

	// Epochs is the run length in OS quanta; it must be positive.
	Epochs int

	// Gamma, when positive, sets the allowed performance degradation.
	Gamma float64

	// Cores and Channels, when positive, override the machine shape.
	Cores, Channels int

	// Mutate, when non-nil, edits the configuration after the fields
	// above are applied and before the policy's own Configure hook;
	// both the baseline and the managed run see the mutation.
	Mutate func(*config.Config)

	// Timeline retains per-epoch records in the managed run's Result.
	Timeline bool

	// Telemetry, when non-nil, instruments the managed run with a
	// private recorder (one per job, so parallel sweeps never share
	// mutable state) and attaches its export to the Outcome. The
	// baseline run is never instrumented: it is memoized and shared
	// across jobs.
	Telemetry *telemetry.Options

	// Interrupt, when non-nil, is a soft-stop signal honored by
	// checkpoint-driven runs (RunWithCheckpoint): once it fires the run
	// finishes its current epoch, captures the state at that boundary,
	// and returns the partial checkpoint with ErrInterrupted. A nil
	// channel (the zero value) never fires. Plain Run ignores it.
	Interrupt <-chan struct{}
}

// Outcome is one managed run paired with its baseline.
type Outcome struct {
	Mix    workload.Mix
	Policy string
	NonMem float64 // rest-of-system watts used for both runs
	Base   sim.Result
	Res    sim.Result

	// Telemetry is the managed run's export when the job requested it,
	// nil otherwise.
	Telemetry *telemetry.RunExport

	// Attempts is always 1: the managed run executes once.
	//
	// Deprecated: nothing reads it; it remains only so existing
	// composite literals still compile.
	Attempts int

	// Shards is unused.
	//
	// Deprecated: nothing sets or reads it; it remains only so existing
	// composite literals still compile.
	Shards int
}

// SystemEnergy returns the full-system energy of r using the
// outcome's calibrated rest-of-system power.
func (o Outcome) SystemEnergy(r sim.Result) float64 {
	return r.Memory.Memory() + o.NonMem*r.Duration.Seconds()
}

// MemorySavings returns the memory-subsystem energy savings vs the
// baseline. A degenerate zero-energy baseline yields 0, not NaN.
func (o Outcome) MemorySavings() float64 {
	base := o.Base.Memory.Memory()
	if base == 0 {
		return 0
	}
	return 1 - o.Res.Memory.Memory()/base
}

// SystemSavings returns the full-system energy savings vs the
// baseline. A degenerate zero-energy baseline yields 0, not NaN.
func (o Outcome) SystemSavings() float64 {
	base := o.SystemEnergy(o.Base)
	if base == 0 {
		return 0
	}
	return 1 - o.SystemEnergy(o.Res)/base
}

// CPIIncrease returns the multiprogram-average and worst-application
// CPI increases vs the baseline (the Figure 6 metrics). Application
// CPI is the mean over its replicated instances; applications whose
// baseline retired no instructions (zero CPI) are skipped rather than
// producing NaN/Inf.
func (o Outcome) CPIIncrease() (avg, worst float64) {
	perApp := map[string]*stats.Series{}
	basePerApp := map[string]*stats.Series{}
	for i := range o.Res.CPI {
		app := o.Mix.Assignment(i)
		if perApp[app] == nil {
			perApp[app] = &stats.Series{}
			basePerApp[app] = &stats.Series{}
		}
		perApp[app].Add(o.Res.CPI[i])
		basePerApp[app].Add(o.Base.CPI[i])
	}
	var s stats.Series
	for app, cur := range perApp {
		base := basePerApp[app].Mean()
		if base == 0 {
			continue
		}
		s.Add(cur.Mean()/base - 1)
	}
	if s.N() == 0 {
		return 0, 0
	}
	return s.Mean(), s.Max()
}

// Progress reports one finished job to the Options.OnResult callback.
type Progress struct {
	// Done is the number of jobs finished so far (including this one);
	// Total is the batch size. Callbacks arrive in completion order,
	// serialized on one goroutine at a time.
	Done, Total int

	// Index is the job's position in the submitted slice.
	Index int

	Job     Job
	Outcome Outcome // zero when Err != nil
	Err     error
}

// Options configure an Engine.
type Options struct {
	// Workers bounds the number of concurrently executing jobs;
	// zero or negative means runtime.GOMAXPROCS(0). A job may briefly
	// use a second goroutine: its baseline, when no other job has
	// simulated it yet, runs alongside its managed run.
	Workers int

	// Cache, when non-nil, shares baseline memoization with other
	// engines; nil creates a private cache.
	Cache *BaselineCache

	// OnResult, when non-nil, is invoked after every finished batch
	// job (successful or not).
	OnResult func(Progress)
}

// Engine executes jobs on a worker pool with shared baseline
// memoization. An Engine is safe for concurrent use.
type Engine struct {
	workers  int
	cache    *BaselineCache
	onResult func(Progress)

	// speculation, when non-nil, replaces core.NewSpeculation(resolved,
	// nil) for speculative attempts; tests use it to hold the baseline
	// back or to force a wrong guess.
	speculation func(resolved func() (float64, bool)) *core.Speculation

	// disableCoalescing puts managed runs on sim's event-driven path
	// (sim.Options.DisableCoalescing); tests set it to compare the two.
	disableCoalescing bool

	// confirmed and reruns count the managed attempts whose speculated
	// decisions a replay confirmed or rejected.
	confirmed, reruns atomic.Int64
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewBaselineCache()
	}
	return &Engine{workers: w, cache: cache, onResult: opts.OnResult}
}

// Cache returns the engine's baseline cache.
func (e *Engine) Cache() *BaselineCache { return e.cache }

// Run executes one job: the baseline (through the cache) and the
// managed run, paired into an Outcome. The whole call is panic
// isolated: a panicking simulation (or Mutate hook) surfaces as a
// *PanicError instead of unwinding the caller.
//
// The baseline simulates on a second goroutine while the managed run
// proceeds; see pairing for how the managed run gets by without the
// baseline's calibrated rest-of-system power.
func (e *Engine) Run(ctx context.Context, job Job) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = Outcome{}, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	if job.Epochs <= 0 {
		return Outcome{}, fmt.Errorf("runner: job epochs must be positive, got %d", job.Epochs)
	}
	cfg, baseCfg := jobConfig(job)
	p := &pairing{job: job, cfg: cfg, base: e.cache.claim(baseCfg, job.Mix, job.Epochs)}
	defer p.base.release()
	r, err := e.pair(ctx, p)
	return r.out, err
}

// pairing is one paired job in flight: its managed run and its claim on
// the baseline, which simulates concurrently on the cache's goroutine.
//
// The rest-of-system power nonMem, calibrated from the baseline, reaches
// the managed trajectory only through the governor's Equation 10 argmin
// (core.Policy). Neither the governor's saved state nor the simulator's
// reads it; the Result's rest-of-system energy, the checkpoint meta and
// the telemetry gauge and run meta are filled in after the run (finish).
// So the managed run starts at once: governors that never read nonMem
// run as they are, and governors with a Speculative hook decide on an
// estimate until the baseline resolves, logging each such decision. A
// replay of the log with the calibrated value then confirms the run
// (attempt), or the attempt re-runs with that value, as a serial pairing
// would have run it. Either way the outcome is bit-identical.
type pairing struct {
	job     Job
	cfg     config.Config // the managed run's configuration
	base    *baselineClaim
	ckEpoch int // > 0: capture the managed state after this many epochs

	// restore, when non-nil, is the checkpointed state the managed run
	// resumes from instead of booting cold (Resume).
	restore *sim.SystemState

	// nonMem is the rest-of-system power the managed run uses, once
	// known: the baseline's calibration, or a checkpoint's.
	nonMem float64
	known  bool
}

// resolve waits for the baseline and adopts its calibrated power unless
// the run already has one.
func (p *pairing) resolve(ctx context.Context) error {
	if err := p.base.wait(ctx); err != nil {
		return err
	}
	if !p.known {
		p.nonMem, p.known = p.base.e.nonMem, true
	}
	return nil
}

// mayGuess reports whether a managed attempt may run on an estimate. A
// rejected guess re-runs the attempt, so a run that can be interrupted
// mid-way must not guess: the interrupt would fire again.
func (p *pairing) mayGuess() bool {
	return p.job.Spec.Speculative != nil && p.job.Interrupt == nil
}

// attemptResult is what one managed attempt produced.
type attemptResult struct {
	out        Outcome
	rec        *telemetry.Recorder
	snap       *sim.SystemState // the captured state when ckEpoch > 0
	snapEpochs int              // epochs the snapshot covers
}

// pair runs the managed attempt and pairs it with the baseline.
func (e *Engine) pair(ctx context.Context, p *pairing) (attemptResult, error) {
	r, err := e.attempt(ctx, p)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		return attemptResult{}, err
	}
	if perr := p.resolve(ctx); perr != nil {
		return attemptResult{}, perr
	}
	if err != nil {
		// Interrupted: the snapshot carries the boundary the run
		// stopped on; there is no finished outcome to pair.
		return attemptResult{snap: r.snap, snapEpochs: r.snapEpochs}, err
	}
	p.finish(&r)
	r.out.Mix, r.out.Policy = p.job.Mix, p.job.Spec.Name
	r.out.NonMem, r.out.Base = p.base.e.nonMem, p.base.e.res
	r.out.Attempts = 1
	return r, nil
}

// attempt executes one managed attempt, on an estimate of nonMem when
// the governor needs the value before the baseline has it.
func (e *Engine) attempt(ctx context.Context, p *pairing) (attemptResult, error) {
	spec := p.job.Spec
	if !p.known {
		p.nonMem, p.known = p.base.resolved()
	}
	if !p.known && spec.Governor != nil && !p.mayGuess() {
		// The governor reads nonMem and cannot confirm a guess: wait for
		// the baseline, as a serial pairing does.
		if err := p.resolve(ctx); err != nil {
			return attemptResult{}, err
		}
	}
	calibrated := func(cfg *config.Config) sim.Governor {
		if spec.Governor == nil {
			return nil
		}
		return spec.Governor(cfg, p.nonMem)
	}
	if p.known || spec.Governor == nil {
		return e.simulate(ctx, p, calibrated)
	}

	var sp *core.Speculation
	if e.speculation != nil {
		sp = e.speculation(p.base.resolved)
	} else {
		sp = core.NewSpeculation(p.base.resolved, nil)
	}
	r, err := e.simulate(ctx, p, func(cfg *config.Config) sim.Governor {
		return spec.Speculative(cfg, sp)
	})
	// A cancelled attempt has nothing to confirm.
	if ctx.Err() != nil || sp.Guesses() == 0 {
		return r, err
	}
	if perr := p.resolve(ctx); perr != nil {
		return attemptResult{}, perr
	}
	if sp.Confirm(p.nonMem) {
		e.confirmed.Add(1)
		return r, err
	}
	e.reruns.Add(1)
	return e.simulate(ctx, p, calibrated)
}

// simulate executes one managed attempt with a fresh governor (built
// by gov), recorder, and trace streams — all are stateful and must not
// leak across attempts. The run's rest-of-system power is left at
// zero; finish accounts it once it is known.
func (e *Engine) simulate(ctx context.Context, p *pairing, gov func(*config.Config) sim.Governor) (attemptResult, error) {
	job, cfg := p.job, p.cfg
	var r attemptResult
	streams, err := job.Mix.Streams(&cfg)
	if err != nil {
		return r, err
	}
	opts := sim.Options{
		Governor:          gov(&cfg),
		KeepTimeline:      job.Timeline,
		DisableCoalescing: e.disableCoalescing,
	}
	if job.Telemetry != nil {
		r.rec = telemetry.NewRecorder(*job.Telemetry)
		r.rec.GammaBound.Set(cfg.Policy.Gamma)
		opts.Telemetry = r.rec
	}
	var s *sim.System
	if p.restore != nil {
		s, err = sim.Restore(cfg, streams, opts, p.restore)
	} else {
		s, err = sim.New(cfg, streams, opts)
	}
	if err != nil {
		return r, err
	}
	target := config.Time(job.Epochs) * cfg.Policy.EpochLength
	var res sim.Result
	if p.ckEpoch > 0 {
		res, r.snap, r.snapEpochs, err = stepRun(ctx, s, job.Interrupt, target, p.ckEpoch)
	} else {
		res, err = s.RunForContext(ctx, target)
	}
	if err != nil {
		return r, err
	}
	r.out = Outcome{Res: res}
	return r, nil
}

// finish accounts the finished attempt's rest-of-system energy at the
// run's nonMem, as sim's finalize would have, and builds its telemetry
// export.
func (p *pairing) finish(r *attemptResult) {
	res := &r.out.Res
	res.SetNonMemPower(p.nonMem)
	if r.rec == nil {
		return
	}
	r.rec.NonMemPowerW.Set(p.nonMem)
	apps := make([]string, p.cfg.Cores)
	for i := range apps {
		apps[i] = p.job.Mix.Assignment(i)
	}
	freqSeconds := make(map[int]float64, len(res.FreqTime))
	for f, t := range res.FreqTime {
		freqSeconds[int(f)] = t.Seconds()
	}
	r.out.Telemetry = r.rec.Export(telemetry.RunMeta{
		Mix:          p.job.Mix.Name,
		Policy:       p.job.Spec.Name,
		Gamma:        p.cfg.Policy.Gamma,
		Cores:        p.cfg.Cores,
		Channels:     p.cfg.Channels,
		CoreApps:     apps,
		NonMemPowerW: p.nonMem,
	}, freqSeconds)
}

// RunEach executes every job on the worker pool and returns outcomes
// and errors both indexed like jobs (deterministic ordering regardless
// of completion order). One job's failure does not stop the others;
// cancellation does — jobs not yet started report ctx.Err().
func (e *Engine) RunEach(ctx context.Context, jobs []Job) ([]Outcome, []error) {
	outs := make([]Outcome, len(jobs))
	var onDone func(done, i int, err error)
	if e.onResult != nil {
		onDone = func(done, i int, err error) {
			e.onResult(Progress{
				Done: done, Total: len(jobs), Index: i,
				Job: jobs[i], Outcome: outs[i], Err: err,
			})
		}
	}
	errs := ForEach(ctx, e.workers, len(jobs), func(ctx context.Context, i int) error {
		var err error
		outs[i], err = e.Run(ctx, jobs[i])
		return err
	}, onDone)
	return outs, errs
}

// RunAll is RunEach with the per-job errors joined into one error
// annotated with each failing job's identity; outcomes for failed jobs
// are zero values.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) ([]Outcome, error) {
	outs, errs := e.RunEach(ctx, jobs)
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("job %d (%s/%s): %w",
				i, jobs[i].Mix.Name, jobs[i].Spec.Name, err))
		}
	}
	return outs, errors.Join(joined...)
}
