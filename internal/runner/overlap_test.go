package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// heldBack makes every speculative attempt of eng decide as if the
// baseline were still running, whatever the host's scheduling: the
// whole managed run guesses, and only the replay sees the calibrated
// value. estimate, when non-nil, replaces the default guess.
func heldBack(eng *Engine, estimate func(sim.Profile) float64) {
	eng.speculation = func(func() (float64, bool)) *core.Speculation {
		return core.NewSpeculation(func() (float64, bool) { return 0, false }, estimate)
	}
}

// TestWrongGuessReruns forces an estimate that picks the wrong
// frequency: the replay must reject it, and the re-run must land on the
// warm-cache result.
func TestWrongGuessReruns(t *testing.T) {
	ctx := context.Background()
	job := smallJob(t, "MID1", policies.MemScale)
	job.Epochs = 2
	job.Telemetry = &telemetry.Options{Events: true}
	eng := New(Options{Workers: 1})
	// Rest-of-system power this large makes run time all that counts,
	// so every guess picks the nominal frequency.
	heldBack(eng, func(sim.Profile) float64 { return 1e9 })
	got, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.reruns.Load(); n != 1 {
		t.Fatalf("re-runs = %d, want 1 (the forced guess must be rejected)", n)
	}
	want, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.reruns.Load(); n != 1 {
		t.Fatalf("the warm-cache run re-ran (re-runs = %d)", n)
	}
	bitdiff.Same(t, "re-run", got, want)
}

// TestGuessesConfirmAcrossMixes: cold-cache runs, overlapped the way
// users run them, across the memory-intensive and mixed workloads, the
// alternative schemes with a speculative hook, and three trace seeds:
// every first-epoch guess must survive the replay.
func TestGuessesConfirmAcrossMixes(t *testing.T) {
	var jobs []Job
	for _, name := range []string{"MEM1", "MID1", "MID2", "MID3", "MID4"} {
		for seed := 1; seed <= 3; seed++ {
			for _, spec := range policies.Alternatives() {
				if spec.Speculative == nil {
					continue // nothing to guess: no governor
				}
				job := smallJob(t, name, spec)
				if seed > 1 {
					job.Mix.Name = fmt.Sprintf("%s~%d", name, seed)
				}
				jobs = append(jobs, job)
			}
		}
	}
	// One engine per job keeps every cache cold.
	engs := make([]*Engine, len(jobs))
	errs := ForEach(context.Background(), 0, len(jobs), func(ctx context.Context, i int) error {
		engs[i] = New(Options{Workers: 1})
		_, err := engs[i].Run(ctx, jobs[i])
		return err
	}, nil)
	var confirmed, reruns int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", jobs[i].Mix.Name, jobs[i].Spec.Name, err)
		}
		confirmed += engs[i].confirmed.Load()
		reruns += engs[i].reruns.Load()
	}
	t.Logf("%d of %d runs confirmed a guess, %d re-ran", confirmed, len(jobs), reruns)
	if confirmed == 0 {
		t.Error("no run decided on an estimate")
	}
	if reruns != 0 {
		t.Errorf("%d runs re-ran after a rejected guess, want 0", reruns)
	}
}

// TestOverlapMatchesWarmCache: on every golden job the reference, run
// on a cold cache with its managed run deciding on estimates throughout,
// must be bit-identical to the warmCells run once the baseline is
// cached. The attempts decided on an estimate must be exactly those
// whose governor reads nonMem.
func TestOverlapMatchesWarmCache(t *testing.T) {
	for _, job := range goldenJobs(t) {
		t.Run(job.Mix.Name+"/"+job.Spec.Name, func(t *testing.T) {
			t.Parallel()
			ref := matrix(t, job, warmCells)
			if reads := job.Spec.Speculative != nil && job.Spec.Name != policies.StaticBest.Name; reads != (ref.guessed > 0) {
				t.Errorf("%d attempts decided on an estimate; want some exactly when the governor reads nonMem (%v)", ref.guessed, reads)
			}
		})
	}
}

// TestBaselinePanicFailsWaiters: a panicking baseline must fail every
// caller with a *PanicError and leave no entry behind, so a later
// caller with the same key gets the typed error instead of blocking.
func TestBaselinePanicFailsWaiters(t *testing.T) {
	mix, err := workload.ByName("ILP2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = -1 // sizing the per-core streams panics
	cache := NewBaselineCache()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, _, err := cache.Baseline(ctx, cfg, mix, 1, 0)
		cancel()
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.Is(err, ErrRunPanicked) {
			t.Fatalf("call %d: err = %v, want a *PanicError", i, err)
		}
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (a panicked baseline must not stay cached)", misses)
	}
}

// settled waits for the goroutine count to fall back to want.
func settled(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the call, want %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlapLifecycle: no goroutine Run, RunWithCheckpoint or Resume
// starts outlives the call, and cancellation during either simulation
// returns promptly.
func TestOverlapLifecycle(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	job := smallJob(t, "MID1", policies.MemScale)
	job.Epochs = 2

	eng := New(Options{Workers: 1})
	if _, err := eng.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	settled(t, before)
	_, ck, err := New(Options{Workers: 1}).RunWithCheckpoint(ctx, job, 1)
	if err != nil {
		t.Fatal(err)
	}
	settled(t, before)
	if _, err := New(Options{Workers: 1}).Resume(ctx, ResumeJob{Checkpoint: ck, Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	settled(t, before)

	// A governor without the speculative hook waits for the baseline, so
	// cancelling it lands during the baseline; MemScale is cancelled
	// during its managed run.
	waiting := policies.MemScale
	waiting.Speculative = nil
	long := func(spec policies.Spec) Job {
		j := smallJob(t, "MEM1", spec)
		j.Epochs = 200
		return j
	}
	for _, j := range []Job{long(waiting), long(policies.MemScale)} {
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err := New(Options{Workers: 1}).Run(cctx, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", j.Spec.Name, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: cancellation took %v", j.Spec.Name, took)
		}
		settled(t, before)
	}
}
