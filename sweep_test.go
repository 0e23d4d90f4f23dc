package memscale

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"memscale/internal/bitdiff"
)

// smallGrid is a reduced-scale mix x policy grid that keeps sweep
// tests fast (a 4-core/2-channel pair simulates in tens of
// milliseconds).
func smallGrid() []RunConfig {
	return Grid(
		RunConfig{Epochs: 1, Cores: 4, Channels: 2},
		[]string{"ILP2", "MID1", "MID4", "MEM2"},
		[]string{"Fast-PD", "MemScale"},
	)
}

func TestSweepDeterminismParallelVsSerial(t *testing.T) {
	grid := smallGrid()
	serial, err := Sweep(context.Background(), SweepConfig{Runs: grid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), SweepConfig{Runs: grid, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "8-worker vs serial sweep", serial, parallel)
	// And both must match a bare RunContext of the same config.
	one, err := RunContext(context.Background(), grid[0])
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "RunContext vs Sweep", one, serial[0])
}

func TestRunContextCancellationMidSimulation(t *testing.T) {
	// 100 epochs of a memory-bound mix take several seconds serially;
	// a 30 ms deadline lands mid-simulation.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, RunConfig{Mix: "MEM1", Epochs: 100, Cores: 4, Channels: 2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// "Promptly": well under the multi-second full run. Generous slack
	// for race-detector and loaded-CI runs.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sums, err := Sweep(ctx, SweepConfig{Runs: smallGrid(), Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sums) != len(smallGrid()) {
		t.Errorf("summaries length %d, want %d", len(sums), len(smallGrid()))
	}
}

func TestSentinelErrors(t *testing.T) {
	cases := []struct {
		name string
		rc   RunConfig
		want error
	}{
		{"unknown mix", RunConfig{Mix: "NOPE"}, ErrUnknownMix},
		{"retired /part mix", RunConfig{Mix: "MEM1/part"}, ErrUnknownMix},
		{"unknown policy", RunConfig{Mix: "MID1", Policy: "NOPE"}, ErrUnknownPolicy},
		{"negative epochs", RunConfig{Mix: "MID1", Epochs: -1}, ErrInvalidConfig},
		{"gamma out of range", RunConfig{Mix: "MID1", Gamma: 1.5}, ErrInvalidConfig},
		{"negative cores", RunConfig{Mix: "MID1", Cores: -4}, ErrInvalidConfig},
		{"negative channels", RunConfig{Mix: "MID1", Channels: -1}, ErrInvalidConfig},
	}
	for _, tc := range cases {
		_, err := RunContext(context.Background(), tc.rc)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

func TestSweepPerJobErrorCollection(t *testing.T) {
	runs := []RunConfig{
		{Mix: "MID1", Policy: "Fast-PD", Epochs: 1, Cores: 4, Channels: 2},
		{Mix: "BOGUS", Policy: "Fast-PD", Epochs: 1},
		{Mix: "ILP2", Policy: "Fast-PD", Epochs: -3},
		{Mix: "ILP2", Policy: "Fast-PD", Epochs: 1, Cores: 4, Channels: 2},
	}
	sums, err := Sweep(context.Background(), SweepConfig{Runs: runs, Workers: 2})
	if err == nil {
		t.Fatal("sweep with bad jobs must return an error")
	}
	if !errors.Is(err, ErrUnknownMix) || !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("joined error %v must match both sentinels", err)
	}
	if sums[0].Mix != "MID1" || sums[3].Mix != "ILP2" {
		t.Errorf("valid jobs must still run: got %q, %q", sums[0].Mix, sums[3].Mix)
	}
	if sums[1].Mix != "" || sums[2].Mix != "" {
		t.Error("failed jobs must leave zero summaries")
	}
}

func TestSweepProgressCallback(t *testing.T) {
	runs := []RunConfig{
		{Mix: "BOGUS", Epochs: 1}, // invalid: reported without running
		{Mix: "ILP2", Policy: "Fast-PD", Epochs: 1, Cores: 4, Channels: 2},
		{Mix: "MID1", Policy: "Fast-PD", Epochs: 1, Cores: 4, Channels: 2},
	}
	var completed []int
	var errCount int
	_, err := Sweep(context.Background(), SweepConfig{
		Runs:    runs,
		Workers: 2,
		Progress: func(p SweepProgress) {
			completed = append(completed, p.Completed)
			if p.Total != len(runs) {
				t.Errorf("progress total = %d, want %d", p.Total, len(runs))
			}
			if p.Err != nil {
				errCount++
			} else if p.Summary.Mix != runs[p.Index].Mix {
				t.Errorf("progress index %d carries summary for %q", p.Index, p.Summary.Mix)
			}
		},
	})
	if err == nil {
		t.Fatal("expected joined error from the invalid job")
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(completed, want) {
		t.Errorf("completed sequence = %v, want %v", completed, want)
	}
	if errCount != 1 {
		t.Errorf("%d error callbacks, want 1", errCount)
	}
}

func TestGridShape(t *testing.T) {
	base := RunConfig{Epochs: 3, Gamma: 0.05, Cores: 8}
	g := Grid(base, []string{"MID1", "MID2"}, []string{"MemScale", "Static"})
	if len(g) != 4 {
		t.Fatalf("grid has %d entries, want 4", len(g))
	}
	if g[0].Mix != "MID1" || g[0].Policy != "MemScale" || g[3].Mix != "MID2" || g[3].Policy != "Static" {
		t.Errorf("grid order wrong: %+v", g)
	}
	for _, rc := range g {
		if rc.Epochs != 3 || rc.Gamma != 0.05 || rc.Cores != 8 {
			t.Errorf("base fields not propagated: %+v", rc)
		}
	}
}

func TestRunIsRunContextWrapper(t *testing.T) {
	rc := RunConfig{Mix: "ILP2", Epochs: 1, Cores: 4, Channels: 2}
	a, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "Run vs RunContext", a, b)
}

// TestSweepEmptyGridIsError: an empty grid (e.g. Grid over empty mix
// or policy lists) must surface ErrInvalidConfig, not succeed with
// zero jobs.
func TestSweepEmptyGridIsError(t *testing.T) {
	for name, runs := range map[string][]RunConfig{
		"nil runs":       nil,
		"empty runs":     {},
		"empty mixes":    Grid(RunConfig{}, nil, []string{"MemScale"}),
		"empty policies": Grid(RunConfig{}, []string{"MID1"}, nil),
	} {
		sums, err := Sweep(context.Background(), SweepConfig{Runs: runs})
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: Sweep = (%v, %v), want ErrInvalidConfig", name, sums, err)
		}
		if len(sums) != 0 {
			t.Errorf("%s: empty sweep returned %d summaries", name, len(sums))
		}
	}
}

// TestGridEdgeCases: degenerate inputs produce exactly the expected
// (possibly empty) job lists, and single-axis grids keep their order.
func TestGridEdgeCases(t *testing.T) {
	if g := Grid(RunConfig{}, nil, nil); len(g) != 0 {
		t.Errorf("Grid(nil, nil) has %d entries", len(g))
	}
	if g := Grid(RunConfig{}, []string{"MID1"}, nil); len(g) != 0 {
		t.Errorf("Grid with no policies has %d entries", len(g))
	}
	g := Grid(RunConfig{Epochs: 2}, []string{"MID1"}, []string{"MemScale", "Static", "Fast-PD"})
	if len(g) != 3 {
		t.Fatalf("single-mix grid has %d entries, want 3", len(g))
	}
	for i, want := range []string{"MemScale", "Static", "Fast-PD"} {
		if g[i].Policy != want || g[i].Mix != "MID1" || g[i].Epochs != 2 {
			t.Errorf("entry %d = %+v, want MID1/%s", i, g[i], want)
		}
	}
	// Duplicate axis values are preserved, not deduplicated: callers
	// own their grids.
	if g := Grid(RunConfig{}, []string{"MID1", "MID1"}, []string{"Static"}); len(g) != 2 {
		t.Errorf("duplicate mixes collapsed: %d entries, want 2", len(g))
	}
}

// TestSweepProgressOrderingParallel: under a parallel runner the
// Completed counter must still arrive strictly increasing 1..N with
// every index reported exactly once — the callback is serialized even
// though jobs finish out of order.
func TestSweepProgressOrderingParallel(t *testing.T) {
	runs := Grid(RunConfig{Epochs: 1, Cores: 2, Channels: 1},
		[]string{"ILP1", "MID1"}, []string{"Static", "Fast-PD", "MemScale"})
	seen := map[int]int{}
	var completed []int
	_, err := Sweep(context.Background(), SweepConfig{
		Runs:    runs,
		Workers: 4,
		Progress: func(p SweepProgress) {
			completed = append(completed, p.Completed)
			seen[p.Index]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range completed {
		if c != i+1 {
			t.Fatalf("completed sequence %v is not strictly increasing 1..N", completed)
		}
	}
	if len(seen) != len(runs) {
		t.Fatalf("%d distinct indices reported, want %d", len(seen), len(runs))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("index %d reported %d times", idx, n)
		}
	}
}
