package dram

import (
	"testing"

	"memscale/internal/config"
	"memscale/internal/racebuild"
)

// BenchmarkRankAccess pins the rank state machine's cost per access:
// StartAccess/FinishAccess/PrechargeDone across alternating rows. The
// rank is pure state arithmetic and must never allocate — the event
// core's zero-allocation steady state depends on it.
func BenchmarkRankAccess(b *testing.B) {
	timing := Resolve(config.Default().Timing, config.MaxBusFreq, config.MaxBusFreq)
	r := NewRank(8, &timing)
	now := config.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := i % 8
		ready, _, _ := r.StartAccess(now, bank, i%2)
		busEnd := ready + timing.Burst
		pre := r.FinishAccess(bank, ready, busEnd, false, false)
		r.PrechargeDone(pre, bank)
		now = pre
	}
}

// BenchmarkRankRefresh measures the refresh round-trip.
func BenchmarkRankRefresh(b *testing.B) {
	timing := Resolve(config.Default().Timing, config.MaxBusFreq, config.MaxBusFreq)
	r := NewRank(8, &timing)
	now := config.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SetRefreshPending()
		until, ok := r.TryStartRefresh(now)
		if !ok {
			b.Fatal("refresh must start on an idle rank")
		}
		r.RefreshDone(until)
		now = until
	}
}

// TestZeroAllocs requires BenchmarkRankAccess to step the rank state
// machine with 0 allocs/op.
func TestZeroAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates and slows the benchmark")
	}
	if got := testing.Benchmark(BenchmarkRankAccess).AllocsPerOp(); got != 0 {
		t.Errorf("BenchmarkRankAccess: %d allocs/op, want 0", got)
	}
}
