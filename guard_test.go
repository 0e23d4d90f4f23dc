package memscale

import (
	"context"
	"runtime"
	"testing"

	"memscale/internal/config"
	"memscale/internal/racebuild"
	"memscale/internal/runner"
)

// The guards below are deterministic: exact event counts and heap
// allocation ceilings on the workloads of BenchmarkSingleRun,
// BenchmarkFleet and BenchmarkForkedSweep. Without timing anything,
// they fail when a lost coalescing fast path brings elided events
// back, when allocations creep into the per-event path, or when a
// warm-started sweep stops sharing its prefix. Neither test calls
// t.Parallel: Mallocs counts the whole process. Both skip under -race,
// which slows them about 12x.

// mallocs returns the heap allocations made while fn runs.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunBudgets pins the events one MEM1 run and the 64-node fleet
// fire and caps their allocations at about 8x today's (about 1,300
// and 27,500): orchestration allocates per node and per epoch, never
// per event.
func TestRunBudgets(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates and slows whole runs")
	}
	for _, c := range []struct {
		name       string
		run        func() (events uint64, err error)
		events     uint64
		maxMallocs uint64
	}{
		{"BenchmarkSingleRun", func() (uint64, error) {
			sum, err := Run(singleRunConfig)
			return sum.Events, err
		}, 4_175_399, 10_000},
		{"BenchmarkFleet", func() (uint64, error) {
			sum, err := RunFleet(context.Background(), benchFleetConfig())
			return sum.Events, err
		}, 63_198_873, 200_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			var events uint64
			var err error
			n := mallocs(func() { events, err = c.run() })
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d events, %d heap allocations", events, n)
			if events != c.events {
				t.Errorf("fired %d events, want %d", events, c.events)
			}
			if n > c.maxMallocs {
				t.Errorf("%d heap allocations, budget %d", n, c.maxMallocs)
			}
		})
	}
}

// TestForkedSweepEvents counts the events BenchmarkForkedSweep's grid
// simulates cold and warm-started. Warm, the shared prefix fires once
// and each variant fires only its own epochs after it, so the ideal
// ratio is 19/64 epochs; losing prefix sharing drags it to 1. The
// ratio bound is the 1.8x wall-clock floor this count replaces.
func TestForkedSweepEvents(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation slows whole runs")
	}
	jobs := forkedSweepJobs(t)
	ctx := context.Background()
	eng := runner.New(runner.Options{})
	coldOuts, errs := eng.RunEach(ctx, jobs)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	warmOuts, errs := eng.RunEachWarm(ctx, jobs, forkedSweepPrefix)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores, cfg.Channels = jobs[0].Cores, jobs[0].Channels
	snap, err := eng.WarmPrefix(ctx, cfg, jobs[0].Mix, forkedSweepPrefix)
	if err != nil {
		t.Fatal(err)
	}
	prefix := snap.Events.Fired

	var cold, warm uint64
	for i := range jobs {
		// A forked run's count includes the prefix it restored.
		cold += coldOuts[i].Res.Events
		warm += warmOuts[i].Res.Events - prefix
	}
	warm += prefix
	if cold != 19_515_074 || prefix != 970_311 || warm != 5_900_170 {
		t.Errorf("cold %d, prefix %d, warm %d events; want 19515074, 970311, 5900170",
			cold, prefix, warm)
	}
	if ratio := float64(warm) / float64(cold); ratio >= 1/1.8 {
		t.Errorf("warm/cold events %.3f, want < %.3f", ratio, 1/1.8)
	}
}
