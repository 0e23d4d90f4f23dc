// Command memscale-benchguard turns `go test -bench` output into a
// machine-readable benchmark report and enforces per-benchmark
// budgets, so a hot-path regression fails CI instead of landing
// silently.
//
// Usage:
//
//	go test -run=NONE -bench='BenchmarkSingleRun$|BenchmarkSweep$' \
//	    -benchmem -benchtime=1x . | memscale-benchguard -out BENCH_5.json
//
// It parses every benchmark result line on stdin — lines with only the
// standard ns/op, B/op, and allocs/op columns are accepted as-is;
// custom metrics such as events/op are picked up when present but are
// never required — writes a JSON report alongside the recorded
// baseline from the previous PR's report (BENCH_4), and exits non-zero
// when a benchmark with a budget exceeds its allocs/op ceiling or its
// events/op ceiling. An events/op budget is only enforced when the run
// actually emitted the metric, so benchmarks that do not report it
// cannot trip the guard.
//
// Besides ceilings, the guard enforces minimum floors on custom
// metrics — e.g. BenchmarkForkedSweep must keep its warm-speedup-x at
// or above 1.8, so losing the warm-start fast path fails CI. A floor
// is only enforced when the run emitted the metric, and every floored
// metric the run did emit is persisted into the report's
// min_metric_values block next to its floor, so the recorded
// BENCH_*.json answers "what speedup did CI actually measure?".
//
// Budgets default to the tables below; override per benchmark with
// -max-allocs 'BenchmarkSingleRun=10000',
// -max-events 'BenchmarkSingleRun=4500000', and
// -min-metrics 'BenchmarkForkedSweep=warm-speedup-x:1.8'.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// recordedBaselines are the per-benchmark reference points from earlier
// PRs' reports; the report's speedup and event-reduction ratios are
// computed against them. BenchmarkSingleRun is measured against
// results/BENCH_4.json — the zero-allocation event core the coalescing
// fast paths started from.
var recordedBaselines = map[string]result{
	"BenchmarkSingleRun": {
		NsPerOp:     2487728979,
		AllocsPerOp: 1167,
		BytesPerOp:  153976,
		Metrics:     map[string]float64{"events/op": 7537520},
	},
}

// defaultBudgets are allocs/op ceilings: ~8x the observed steady-state
// cost — loose enough for noise and moderate feature growth, tight
// enough that reintroducing per-event allocations trips the guard
// immediately.
var defaultBudgets = map[string]int64{
	"BenchmarkSingleRun": 10_000,
	// 64-node fleet: ~27k allocs steady state (fleet orchestration is
	// per-node, not per-event); ~8x headroom.
	"BenchmarkFleet": 200_000,
}

// defaultEventBudgets are events/op ceilings, set just above the
// coalesced steady state (~4.18M): losing a coalescing fast path — the
// elided events quietly coming back — is a performance regression the
// wall-clock numbers alone are too noisy to catch.
var defaultEventBudgets = map[string]float64{
	"BenchmarkSingleRun": 4_500_000,
	// 64 paired node runs x 2 epochs fire ~63M events; the ceiling
	// trips if the coalescing fast paths regress fleet-wide.
	"BenchmarkFleet": 70_000_000,
}

// defaultMinMetrics are custom-metric floors keyed by benchmark name:
// a run that reports the metric below its floor is a regression. The
// forked-sweep floor guards the checkpoint subsystem's headline win —
// a 16-variant sweep forked from a shared 50% warm-up prefix has an
// ideal 1.88x speedup over the cold sweep; 1.8x leaves noise headroom
// while catching any loss of prefix sharing.
var defaultMinMetrics = map[string]map[string]float64{
	"BenchmarkForkedSweep": {"warm-speedup-x": 1.8},
}

type result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Benchmarks   map[string]result             `json:"benchmarks"`
	Baseline     map[string]result             `json:"baseline"`
	Budgets      map[string]int64              `json:"budgets_allocs_per_op"`
	EventBudgets map[string]float64            `json:"budgets_events_per_op,omitempty"`
	MinMetrics   map[string]map[string]float64 `json:"min_metrics,omitempty"`

	// MinMetricValues records the values the run actually achieved for
	// every floored metric that was emitted — the measured speedup-x
	// next to its floor, so the report answers "how much headroom is
	// left?" without re-running the benchmark.
	MinMetricValues map[string]map[string]float64 `json:"min_metric_values,omitempty"`

	Improve     map[string]float64 `json:"speedup_vs_baseline,omitempty"`
	EventsRatio map[string]float64 `json:"events_reduction_vs_baseline,omitempty"`
	Violations  []string           `json:"violations"`
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkSingleRun-8   3   202072 ns/op   7537 events/op   12 B/op   3 allocs/op
//
// returning the benchmark name (GOMAXPROCS suffix stripped) and the
// parsed result; ok is false for non-benchmark lines. Custom metric
// columns are optional: a plain ns/op-only line parses fine.
func parseLine(line string) (name string, r result, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r.Metrics = map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = val
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		case "B/op":
			r.BytesPerOp = int64(val)
		default:
			r.Metrics[fields[i+1]] = val
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return name, r, r.NsPerOp > 0
}

func parseBudgets(spec string, into map[string]int64) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return fmt.Errorf("budget %q is not name=allocs", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("budget %q: %v", part, err)
		}
		into[name] = n
	}
	return nil
}

func parseEventBudgets(spec string, into map[string]float64) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return fmt.Errorf("event budget %q is not name=events", part)
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("event budget %q: %v", part, err)
		}
		into[name] = n
	}
	return nil
}

// parseMinMetrics decodes 'Name=metric:floor,Name=metric:floor'
// specs into the floor table.
func parseMinMetrics(spec string, into map[string]map[string]float64) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, rest, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return fmt.Errorf("min metric %q is not Name=metric:floor", part)
		}
		metric, val, found := strings.Cut(rest, ":")
		if !found {
			return fmt.Errorf("min metric %q is not Name=metric:floor", part)
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("min metric %q: %v", part, err)
		}
		if into[name] == nil {
			into[name] = map[string]float64{}
		}
		into[name][metric] = n
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_5.json", "write the JSON benchmark report to this file")
	budgetSpec := flag.String("max-allocs", "",
		"extra allocs/op budgets as 'Name=N,Name=N' (override or extend the defaults)")
	eventSpec := flag.String("max-events", "",
		"extra events/op budgets as 'Name=N,Name=N' (override or extend the defaults)")
	minSpec := flag.String("min-metrics", "",
		"extra custom-metric floors as 'Name=metric:floor,...' (override or extend the defaults)")
	flag.Parse()

	budgets := make(map[string]int64, len(defaultBudgets))
	for k, v := range defaultBudgets {
		budgets[k] = v
	}
	if err := parseBudgets(*budgetSpec, budgets); err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard:", err)
		os.Exit(2)
	}
	eventBudgets := make(map[string]float64, len(defaultEventBudgets))
	for k, v := range defaultEventBudgets {
		eventBudgets[k] = v
	}
	if err := parseEventBudgets(*eventSpec, eventBudgets); err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard:", err)
		os.Exit(2)
	}
	minMetrics := make(map[string]map[string]float64, len(defaultMinMetrics))
	for name, floors := range defaultMinMetrics {
		minMetrics[name] = map[string]float64{}
		for m, v := range floors {
			minMetrics[name][m] = v
		}
	}
	if err := parseMinMetrics(*minSpec, minMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard:", err)
		os.Exit(2)
	}

	rep := report{
		Benchmarks:      map[string]result{},
		Baseline:        recordedBaselines,
		Budgets:         budgets,
		EventBudgets:    eventBudgets,
		MinMetrics:      minMetrics,
		MinMetricValues: map[string]map[string]float64{},
		Improve:         map[string]float64{},
		EventsRatio:     map[string]float64{},
		Violations:      []string{},
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fmt.Println(sc.Text()) // pass the raw output through
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		rep.Benchmarks[name] = r
		if base, have := recordedBaselines[name]; have && r.NsPerOp > 0 {
			rep.Improve[name] = base.NsPerOp / r.NsPerOp
			if be, ne := base.Metrics["events/op"], r.Metrics["events/op"]; be > 0 && ne > 0 {
				rep.EventsRatio[name] = be / ne
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard: read:", err)
		os.Exit(2)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "memscale-benchguard: no benchmark results on stdin")
		os.Exit(2)
	}

	for name, budget := range budgets {
		r, ran := rep.Benchmarks[name]
		if !ran {
			continue // guard only what this invocation ran
		}
		if r.AllocsPerOp > budget {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s allocated %d allocs/op, budget %d", name, r.AllocsPerOp, budget))
		}
	}
	for name, budget := range eventBudgets {
		r, ran := rep.Benchmarks[name]
		if !ran {
			continue
		}
		ev, reported := r.Metrics["events/op"]
		if !reported {
			continue // the metric is optional; absence is not a violation
		}
		if ev > budget {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s fired %.0f events/op, budget %.0f", name, ev, budget))
		}
	}
	for name, floors := range minMetrics {
		r, ran := rep.Benchmarks[name]
		if !ran {
			continue
		}
		for metric, floor := range floors {
			v, reported := r.Metrics[metric]
			if !reported {
				continue // floors only bind when the run emitted the metric
			}
			if rep.MinMetricValues[name] == nil {
				rep.MinMetricValues[name] = map[string]float64{}
			}
			rep.MinMetricValues[name][metric] = v
			if v < floor {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"%s reported %s = %.3f, floor %.3f", name, metric, v, floor))
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "memscale-benchguard:", err)
		os.Exit(2)
	}
	fmt.Printf("memscale-benchguard: report written to %s\n", *out)

	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "memscale-benchguard: BUDGET REGRESSION:", v)
		}
		os.Exit(1)
	}
}
