package memctrl

import (
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/racebuild"
)

// BenchmarkControllerEpoch drives a closed loop of four cores through
// one controller — each completed read immediately issues the next,
// walking rows to mix row hits and misses — for 100 us of simulated
// time per iteration. After the first iteration warms the event pool
// and request pool, the steady state must not allocate.
func BenchmarkControllerEpoch(b *testing.B) {
	cfg := config.Default()
	cfg.Cores = 4
	cfg.Channels = 1
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	q := &event.Queue{}
	c := New(&cfg, q)
	c.Start()
	mapper := config.NewAddressMapper(&cfg)

	lines := make([]uint64, cfg.Cores)
	var issue func(core int) event.Handler
	issue = func(core int) event.Handler {
		var h event.Handler
		h = func(now config.Time) {
			lines[core]++
			// Stride across banks and rows per core so the benchmark
			// exercises hits, misses, and bus contention.
			row := int(lines[core]/4) % 128
			bank := int(lines[core]) % cfg.BanksPerRank
			line := mapper.LineForRow(0, core%cfg.RanksPerChannel(), bank, row, 0)
			c.Enqueue(now, line, false, core, h)
		}
		return h
	}
	for core := 0; core < cfg.Cores; core++ {
		issue(core)(q.Now())
	}

	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		start := q.Fired()
		q.RunUntil(q.Now() + 100*config.Microsecond)
		fired += q.Fired() - start
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// TestZeroAllocs requires BenchmarkControllerEpoch to serve its closed
// loop of reads with 0 allocs/op in steady state.
func TestZeroAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates and slows the benchmark")
	}
	if got := testing.Benchmark(BenchmarkControllerEpoch).AllocsPerOp(); got != 0 {
		t.Errorf("BenchmarkControllerEpoch: %d allocs/op, want 0", got)
	}
}
