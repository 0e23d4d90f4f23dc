package memscale

import (
	"context"
	"runtime"
	"testing"

	"memscale/internal/racebuild"
)

// The guard below is deterministic: exact event counts and heap
// allocation ceilings on the workloads of BenchmarkSingleRun and
// BenchmarkFleet. Without timing anything, it fails when a lost
// coalescing fast path brings elided events back, or when allocations
// creep into the per-event path. It does not call t.Parallel: Mallocs
// counts the whole process. It skips under -race, which slows it about
// 12x.

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
