package memscale

// Benchmark harness: one benchmark per paper table/figure. Each
// benchmark regenerates its table/figure at a reduced scale (2 OS
// quanta per run instead of 10) and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` both exercises every
// experiment end-to-end and prints the reproduced numbers.
//
// The figure benchmarks take seconds to minutes each by nature (each
// runs a grid of full-system simulations); the default 1s benchtime
// therefore executes most of them exactly once.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"memscale/internal/config"
	"memscale/internal/exp"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// benchParams returns the reduced experiment scale used by the
// benchmarks.
func benchParams() exp.Params {
	p := exp.DefaultParams()
	p.Epochs = 1
	p.TimelineEpochs = 10 // enough to cross apsi's phase change (~40 ms)
	return p
}

func BenchmarkTable1Workloads(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Breakdown(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5EnergySavings(b *testing.B) {
	// Covers Figures 5 and 6: MemScale on all twelve mixes.
	p := benchParams()
	var sys, mem, worst stats.Series
	for i := 0; i < b.N; i++ {
		outs, err := p.MemScaleOutcomes()
		if err != nil {
			b.Fatal(err)
		}
		for _, out := range outs {
			sys.Add(out.SystemSavings())
			mem.Add(out.MemorySavings())
			_, w := out.CPIIncrease()
			worst.Add(w)
		}
	}
	b.ReportMetric(sys.Mean()*100, "sys-savings-%")
	b.ReportMetric(mem.Mean()*100, "mem-savings-%")
	b.ReportMetric(worst.Max()*100, "worst-CPI-%")
}

func BenchmarkFigure7Timeline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Timeline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Policies(b *testing.B) {
	// Covers Figures 9, 10, and 11: the policy-comparison grid.
	p := benchParams()
	var best float64
	var bestName string
	for i := 0; i < b.N; i++ {
		grid, names, err := p.PolicyComparison()
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range names {
			var sys stats.Series
			for _, out := range grid[name] {
				sys.Add(out.SystemSavings())
			}
			if s := sys.Mean(); s > best {
				best, bestName = s, name
			}
		}
	}
	b.ReportMetric(best*100, "best-policy-sys-savings-%")
	b.Logf("best policy: %s", bestName)
}

func benchSensitivity(b *testing.B, run func(exp.Params) (exp.Report, error)) {
	b.Helper()
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Bound(b *testing.B) {
	benchSensitivity(b, func(p exp.Params) (exp.Report, error) { return p.Figure12() })
}

func BenchmarkFigure13Channels(b *testing.B) {
	benchSensitivity(b, func(p exp.Params) (exp.Report, error) { return p.Figure13() })
}

func BenchmarkFigure14MemFraction(b *testing.B) {
	benchSensitivity(b, func(p exp.Params) (exp.Report, error) { return p.Figure14() })
}

func BenchmarkFigure15Proportionality(b *testing.B) {
	benchSensitivity(b, func(p exp.Params) (exp.Report, error) { return p.Figure15() })
}

func BenchmarkSensitivityExtra(b *testing.B) {
	benchSensitivity(b, func(p exp.Params) (exp.Report, error) { return p.SensitivityExtra() })
}

// singleRunConfig is the memory-bound epoch pair behind
// BenchmarkSingleRun and TestRunBudgets.
var singleRunConfig = RunConfig{Mix: "MEM1", Policy: "MemScale", Epochs: 1}

// BenchmarkSingleRun measures the simulator's raw throughput on one
// memory-bound epoch pair — the unit of work every figure above is
// built from. events/op (fired simulation events per run) normalizes
// the trajectory across future workload changes: ns/op may move when a
// workload grows, but ns divided by events/op is the engine's real
// per-event cost.
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		sum, err := Run(singleRunConfig)
		if err != nil {
			b.Fatal(err)
		}
		events += sum.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchSweepGrid is the fixed grid behind BenchmarkSweep and
// BenchmarkSweepTelemetry, so the pair isolates the telemetry
// subsystem's overhead on an otherwise identical workload.
func benchSweepGrid(tc *TelemetryConfig) []RunConfig {
	return Grid(
		RunConfig{Epochs: 1, Cores: 4, Channels: 2, Telemetry: tc},
		[]string{"MID1", "MEM1"},
		[]string{"MemScale", "Static"},
	)
}

// BenchmarkSweep is the telemetry-off reference sweep. With telemetry
// disabled every instrumented hot path reduces to one nil check, so
// this benchmark must stay within noise of its pre-telemetry cost.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), SweepConfig{Runs: benchSweepGrid(nil)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTelemetry is the same sweep with full telemetry
// (collectors + event stream) enabled, bounding the cost of turning
// instrumentation on.
func BenchmarkSweepTelemetry(b *testing.B) {
	b.ReportAllocs()
	tc := &TelemetryConfig{Events: true}
	for i := 0; i < b.N; i++ {
		sums, err := Sweep(context.Background(), SweepConfig{Runs: benchSweepGrid(tc)})
		if err != nil {
			b.Fatal(err)
		}
		if sums[0].Telemetry == nil {
			b.Fatal("telemetry export missing")
		}
	}
}

// BenchmarkSweepSpeedup times the same policy-comparison grid run
// serially and on a GOMAXPROCS-wide worker pool, and reports the
// wall-clock ratio as "speedup-x". On a single-core host the ratio
// stays near 1; on 4+ cores the parallel sweep should be >= 2x faster.
func BenchmarkSweepSpeedup(b *testing.B) {
	grid := Grid(
		RunConfig{Epochs: 1, Cores: 4, Channels: 2},
		[]string{"MID1", "MID2", "MID3", "MID4"},
		Policies()[1:], // skip Baseline: it is the shared reference, not a scheme
	)
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := Sweep(context.Background(), SweepConfig{Runs: grid, Workers: 1}); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(start)
		start = time.Now()
		if _, err := Sweep(context.Background(), SweepConfig{Runs: grid, Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(start)
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkBaselineCacheHitRate runs the Figure 9-11 shape of grid —
// many policies paired against few distinct baselines — through one
// engine and reports the cache hit rate. Each distinct baseline
// configuration must simulate exactly once regardless of worker count.
func BenchmarkBaselineCacheHitRate(b *testing.B) {
	mixNames := []string{"MID1", "MID2", "MID3", "MID4"}
	specs := policies.Alternatives()
	var jobs []runner.Job
	for _, name := range mixNames {
		mix, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range specs {
			jobs = append(jobs, runner.Job{
				Mix: mix, Spec: spec, Epochs: 1, Cores: 4, Channels: 2,
			})
		}
	}
	var hitRate float64
	for i := 0; i < b.N; i++ {
		eng := runner.New(runner.Options{})
		if _, err := eng.RunAll(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
		hits, misses := eng.Cache().Stats()
		if misses != len(mixNames) {
			b.Fatalf("baseline simulated %d times, want exactly %d (one per mix)", misses, len(mixNames))
		}
		hitRate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(hitRate*100, "cache-hit-%")
}

// BenchmarkTraceGeneration measures synthetic-trace throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := config.Default()
	mix, err := workload.ByName("MEM1")
	if err != nil {
		b.Fatal(err)
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams[i%len(streams)].Next()
	}
}

// benchFleetConfig is BenchmarkFleet's cluster: 64 nodes under a
// tight global power budget.
func benchFleetConfig() FleetConfig {
	return FleetConfig{
		Groups: []NodeGroup{
			{Name: "web", Nodes: 48, Mix: "MID1", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalPoisson}},
			{Name: "batch", Nodes: 16, Mix: "MEM1", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalBursty}},
		},
		Epochs:       2,
		PowerBudgetW: 320,
		Seed:         1,
	}
}

// BenchmarkFleet measures cluster-scale throughput: 64 nodes (each a
// full paired simulation) under a tight global power budget with the
// coordinator reassigning caps every epoch. events/op counts the
// simulation events fired across the whole fleet (managed runs plus
// baselines), so per-node engine regressions show apart from
// fleet-orchestration overhead, which shows as lost parallel
// efficiency.
func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	fc := benchFleetConfig()
	var events uint64
	for i := 0; i < b.N; i++ {
		sum, err := RunFleet(context.Background(), fc)
		if err != nil {
			b.Fatal(err)
		}
		events += sum.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(64, "nodes/op")
}
