package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/runner"
	"memscale/internal/sim"
)

func testConfig(workers int) Config {
	return Config{
		Groups: []NodeGroup{
			{Name: "web", Nodes: 4, Mix: "ILP1", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalPoisson}},
			{Name: "cache", Nodes: 2, Mix: "MID2", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalBursty}},
		},
		Epochs:       6,
		PowerBudgetW: 40,
		Seed:         7,
		Workers:      workers,
	}
}

// resolved resolves c for a test that swaps a group's governor before
// handing the groups to run.
func resolved(t *testing.T, c Config) []group {
	t.Helper()
	groups, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestFleetDeterministicAcrossWorkers is the headline guarantee: same
// seed, different worker counts, bit-identical summary.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	a, errA := Run(context.Background(), testConfig(1))
	b, errB := Run(context.Background(), testConfig(4))
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("summaries differ across worker counts:\n%s\nvs\n%s", ja, jb)
	}
	if math.Float64bits(a.SER) != math.Float64bits(b.SER) {
		t.Errorf("SER bits differ: %v vs %v", a.SER, b.SER)
	}
}

// TestFleetCapInterval: with a coordinator period of 3 over a 10-epoch
// horizon, caps are reassigned after epochs 3, 6 and 9 (none at the
// horizon), and the summary stays bit-identical across worker counts.
func TestFleetCapInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := testConfig(1)
	c.Epochs, c.CapIntervalEpochs = 10, 3
	a, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	for _, s := range a.CapTrace {
		epochs = append(epochs, s.Epoch)
	}
	if fmt.Sprint(epochs) != "[3 6 9]" {
		t.Errorf("cap decisions at epochs %v, want [3 6 9]", epochs)
	}
	c.Workers = 3
	b, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "1 vs 3 workers", a, b)
}

// TestFleetBudgetCapsPower checks the coordinator actually constrains
// the fleet: with a tight budget, nodes end up capped below nominal
// and the trace shows constrained nodes.
func TestFleetBudgetCapsPower(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := testConfig(0)
	c.Groups = c.Groups[1:] // MID nodes want high frequency
	c.Groups[0].Nodes = 3
	c.PowerBudgetW = 18 // well under 3 nodes' uncapped draw
	sum, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.CapTrace) == 0 {
		t.Fatal("no coordinator decisions recorded")
	}
	lowCapped := false
	for _, ns := range sum.PerNode {
		if ns.FinalCapMHz > 0 && ns.FinalCapMHz < int(config.MaxBusFreq) {
			lowCapped = true
		}
	}
	if !lowCapped {
		t.Error("tight budget never capped any node below nominal")
	}
	last := sum.CapTrace[len(sum.CapTrace)-1]
	if last.EstimatedW > c.PowerBudgetW+1e-9 && last.DeficitW == 0 {
		t.Errorf("estimate %.2fW exceeds budget %.2fW without deficit", last.EstimatedW, c.PowerBudgetW)
	}
}

// TestFleetUncappedMatchesGenerousBudget: with no budget the
// coordinator is off; the run still completes and reports SER < 1 for
// MemScale nodes.
func TestFleetUncapped(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := testConfig(0)
	c.PowerBudgetW = 0
	sum, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.CapTrace) != 0 {
		t.Errorf("uncapped run recorded %d cap decisions", len(sum.CapTrace))
	}
	if sum.SER <= 0 || sum.SER >= 1.2 {
		t.Errorf("fleet SER = %.3f, expected in (0, 1.2)", sum.SER)
	}
	if sum.Nodes != 6 || sum.DeadNodes != 0 {
		t.Errorf("nodes %d dead %d", sum.Nodes, sum.DeadNodes)
	}
	if len(sum.Groups) != 2 || sum.Groups[0].Rollup.Runs != 4 {
		t.Errorf("group rollups wrong: %+v", sum.Groups)
	}
}

// panicAt is the MemScale governor panicking at the end of its nth
// epoch.
type panicAt struct {
	*core.Policy
	n, seen int
}

func (g *panicAt) EpochEnd(p sim.Profile) {
	g.Policy.EpochEnd(p)
	if g.seen++; g.seen == g.n {
		panic(fmt.Sprintf("governor panic at epoch %d", g.n))
	}
}

// TestFleetDeadNodeIsolated: the nodes of a group whose governor
// panics die alone; the rest of the fleet finishes and the error names
// the panic.
func TestFleetDeadNodeIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := testConfig(2)
	groups := resolved(t, c)
	groups[0].spec.Governor = func(cfg *config.Config, nonMem float64) sim.Governor {
		return &panicAt{Policy: core.NewPolicy(cfg, core.Options{NonMemPower: nonMem}), n: 3}
	}
	sum, err := run(context.Background(), c, groups)
	if !errors.Is(err, runner.ErrRunPanicked) {
		t.Fatalf("err = %v, want joined node errors matching ErrRunPanicked", err)
	}
	if sum.DeadNodes != c.Groups[0].Nodes {
		t.Errorf("dead nodes = %d, want %d", sum.DeadNodes, c.Groups[0].Nodes)
	}
	if alive := sum.Nodes - sum.DeadNodes; alive != c.Groups[1].Nodes {
		t.Errorf("alive = %d", alive)
	}
	if sum.SER <= 0 {
		t.Error("survivors produced no SER")
	}
}

// stopAfter is the MemScale governor with a soft-stop trigger: the
// first node to finish epoch n closes stop, so the fleet halts at the
// window boundary after n epochs. Embedding the policy keeps every
// optional governor interface, so the node runs exactly as under the
// plain governor.
type stopAfter struct {
	*core.Policy
	n, seen int
	stop    func()
}

func (g *stopAfter) EpochEnd(p sim.Profile) {
	g.Policy.EpochEnd(p)
	if g.seen++; g.seen == g.n {
		g.stop()
	}
}

// interruptAfter arms c to soft-stop after done epochs and returns its
// groups resolved with the stopping governor.
func interruptAfter(t *testing.T, c *Config, done int) []group {
	ch := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(ch) }) }
	c.Interrupt = ch
	groups := resolved(t, *c)
	for gi := range groups {
		groups[gi].spec.Governor = func(cfg *config.Config, nonMem float64) sim.Governor {
			return &stopAfter{Policy: core.NewPolicy(cfg, core.Options{NonMemPower: nonMem}), n: done, stop: stop}
		}
	}
	return groups
}

// TestSoftStopPairsCompletedEpochs: a fleet soft-stopped after done
// epochs reports the SER and CPI figures of an uninterrupted run of
// done epochs, because each node's managed epochs pair with the same
// epochs of its baseline. The managed runs, the baseline prefixes and
// so the CPI figures match bit for bit. SER matches to within 2%, not
// exactly: the stopped run keeps the rest-of-system power calibrated
// over the full horizon's baseline (an unpaired baseline, as before
// the pairing, is off by a third).
func TestSoftStopPairsCompletedEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	const done = 4
	c := testConfig(0)
	groups := interruptAfter(t, &c, done)
	got, err := run(context.Background(), c, groups)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !got.Interrupted || got.EpochsCompleted != done {
		t.Fatalf("interrupted %v at epoch %d, want a stop at %d", got.Interrupted, got.EpochsCompleted, done)
	}

	ref := testConfig(0)
	ref.Epochs = done
	want, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s = %v, want %v (the uninterrupted %d-epoch run)", name, a, b, done)
		}
	}
	near := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 0.02*math.Abs(b) {
			t.Errorf("%s = %v, want %v within 2%% (the uninterrupted %d-epoch run)", name, a, b, done)
		}
	}
	bits("AvgCPIIncrease", got.AvgCPIIncrease, want.AvgCPIIncrease)
	bits("P99CPIIncrease", got.P99CPIIncrease, want.P99CPIIncrease)
	bits("MemoryEnergyJ", got.MemoryEnergyJ, want.MemoryEnergyJ)
	near("SER", got.SER, want.SER)
	if got.Events != want.Events {
		t.Errorf("events = %d, want %d", got.Events, want.Events)
	}
	for i, g := range got.PerNode {
		w := want.PerNode[i]
		bits("node CPIIncrease", g.CPIIncrease, w.CPIIncrease)
		bits("node MeanIntensity", g.MeanIntensity, w.MeanIntensity)
		near("node SER", g.SER, w.SER)
		if g.CappedEpochs != w.CappedEpochs {
			t.Errorf("node %d capped epochs = %d, want %d", g.Node, g.CappedEpochs, w.CappedEpochs)
		}
	}
}

// TestSoftStopBeforeFirstEpoch: a fleet stopped before its first
// window has no epochs to pair, so it reports no SER and no CPI change
// rather than a baseline with nothing to compare it to.
func TestSoftStopBeforeFirstEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := testConfig(0)
	stop := make(chan struct{})
	close(stop)
	c.Interrupt = stop
	sum, err := Run(context.Background(), c)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !sum.Interrupted || sum.EpochsCompleted != 0 || sum.Nodes != 6 {
		t.Fatalf("interrupted %v at epoch %d with %d nodes", sum.Interrupted, sum.EpochsCompleted, sum.Nodes)
	}
	if sum.SER != 0 || sum.AvgCPIIncrease != 0 || sum.P99CPIIncrease != 0 || sum.BaselineSysJ != 0 {
		t.Errorf("SER %v, CPI avg %v p99 %v, baseline %v J: want all 0 with no epochs run",
			sum.SER, sum.AvgCPIIncrease, sum.P99CPIIncrease, sum.BaselineSysJ)
	}
	for _, ns := range sum.PerNode {
		if ns.SER != 0 || ns.CPIIncrease != 0 || ns.Dead {
			t.Errorf("node %d: SER %v, CPI %v, dead %v", ns.Node, ns.SER, ns.CPIIncrease, ns.Dead)
		}
	}
}

// TestSoftStopCancelsBaselines: a stop that fires while the baselines
// run cancels them instead of waiting out every node's full horizon,
// and the run reports the empty partial summary with ErrInterrupted.
// The horizon is long enough that finishing the baselines would blow
// the test deadline.
func TestSoftStopCancelsBaselines(t *testing.T) {
	c := testConfig(0)
	c.Groups = c.Groups[:1]
	c.Groups[0].Nodes = 2
	c.Epochs = 4000
	stop := make(chan struct{})
	close(stop)
	c.Interrupt = stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sum, err := Run(ctx, c)
	if !errors.Is(err, ErrInterrupted) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrInterrupted alone", err)
	}
	if !sum.Interrupted || sum.EpochsCompleted != 0 || sum.DeadNodes != 0 || sum.Nodes != 2 {
		t.Fatalf("interrupted %v at epoch %d with %d of %d nodes dead",
			sum.Interrupted, sum.EpochsCompleted, sum.DeadNodes, sum.Nodes)
	}
	if sum.SER != 0 || sum.BaselineSysJ != 0 || sum.Events != 0 {
		t.Errorf("SER %v, baseline %v J, %d events: want all 0 with no epochs run",
			sum.SER, sum.BaselineSysJ, sum.Events)
	}
}

// --- planner units ---

func obsAt(w float64, f, want config.FreqMHz) nodeObs {
	return nodeObs{alive: true, measuredW: w, measFreq: f, rho: 0.4, want: want}
}

func TestPlanCapsGenerousBudgetUncaps(t *testing.T) {
	obs := []nodeObs{obsAt(10, 800, 800), obsAt(10, 800, 800)}
	caps, step := planCaps(1, 1000, obs, nil)
	for i, cp := range caps {
		if cp != config.MaxBusFreq {
			t.Errorf("node %d capped at %v under a generous budget", i, cp)
		}
	}
	if step.Constrained != 0 || step.DeficitW != 0 {
		t.Errorf("step = %+v", step)
	}
}

func TestPlanCapsTightBudgetWaterFills(t *testing.T) {
	obs := []nodeObs{obsAt(10, 800, 800), obsAt(10, 800, 800)}
	// Budget fits both nodes only well below nominal.
	caps, step := planCaps(1, 14, obs, nil)
	if caps[0] != caps[1] {
		t.Errorf("identical nodes got different caps: %v vs %v", caps[0], caps[1])
	}
	if caps[0] >= config.MaxBusFreq {
		t.Errorf("cap %v not lowered under tight budget", caps[0])
	}
	if step.Constrained != 2 {
		t.Errorf("constrained = %d, want 2", step.Constrained)
	}
	if step.EstimatedW > 14+1e-9 {
		t.Errorf("estimate %.3f exceeds budget", step.EstimatedW)
	}
}

func TestPlanCapsPromotionsSpendLeftover(t *testing.T) {
	// Two hungry nodes, one idle node. The budget puts the uniform
	// level at 733 MHz (fleet estimate 20.095 W) and leaves ~0.505 W —
	// enough to promote exactly one hungry node back to 800 MHz
	// (incremental cost ~0.5025 W). Deterministic order promotes the
	// lower-indexed node.
	obs := []nodeObs{obsAt(10, 800, 800), obsAt(10, 800, 800), obsAt(2, 800, 200)}
	caps, step := planCaps(1, 20.6, obs, nil)
	if step.UniformMHz != 733 {
		t.Fatalf("uniform level = %d, want 733", step.UniformMHz)
	}
	if caps[0] != config.Freq800 || caps[1] != config.Freq733 {
		t.Errorf("caps = %v, want [800 733 ...]", caps)
	}
	if step.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", step.Promotions)
	}
	if step.EstimatedW > 20.6+1e-9 {
		t.Errorf("estimate %.4f exceeds budget", step.EstimatedW)
	}
}

func TestPlanCapsDeficitReported(t *testing.T) {
	obs := []nodeObs{obsAt(20, 800, 800)}
	caps, step := planCaps(1, 1, obs, nil)
	if caps[0] != config.MinBusFreq {
		t.Errorf("cap = %v, want floor %v", caps[0], config.MinBusFreq)
	}
	if step.DeficitW <= 0 {
		t.Error("deficit not reported for impossible budget")
	}
}

func TestPlanCapsChurnAgainstPrev(t *testing.T) {
	obs := []nodeObs{obsAt(10, 800, 800), obsAt(10, 800, 800)}
	caps, _ := planCaps(1, 1000, obs, nil)
	_, step := planCaps(2, 1000, obs, caps)
	if step.CapChanges != 0 {
		t.Errorf("stable assignment reported %d changes", step.CapChanges)
	}
}

func TestPlanCapsDeadNodesDrawNothing(t *testing.T) {
	obs := []nodeObs{obsAt(10, 800, 800), {}}
	caps, step := planCaps(1, 12, obs, nil)
	if caps[1] != 0 {
		t.Errorf("dead node got cap %v", caps[1])
	}
	if step.MeasuredW != 10 {
		t.Errorf("measured %.1f, want 10", step.MeasuredW)
	}
}

// --- arrival units ---

func TestArrivalSteadyIsExactlyOne(t *testing.T) {
	for i, m := range schedule(ArrivalSteady, 1, 0, 8, 0.005) {
		if m != 1 {
			t.Fatalf("steady epoch %d = %g", i, m)
		}
	}
}

// TestArrivalDeterministicPerNode also draws every diurnal trough
// (40% of the nominal rate of 100) through poisson's small-rate branch.
func TestArrivalDeterministicPerNode(t *testing.T) {
	x := schedule(ArrivalDiurnal, 9, 3, 50, 0.005)
	y := schedule(ArrivalDiurnal, 9, 3, 50, 0.005)
	z := schedule(ArrivalDiurnal, 9, 4, 50, 0.005)
	same, diff := true, false
	for i := range x {
		if x[i] != y[i] {
			same = false
		}
		if x[i] != z[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same (seed, node) produced different schedules")
	}
	if !diff {
		t.Error("different nodes produced identical schedules")
	}
}

func TestArrivalPoissonMeanNearOne(t *testing.T) {
	var sum float64
	sched := schedule(ArrivalPoisson, 5, 0, 200, 0.005)
	for _, m := range sched {
		sum += m
		if m < minIntensity || m > maxIntensity {
			t.Fatalf("intensity %g outside clamp", m)
		}
	}
	if mean := sum / float64(len(sched)); mean < 0.9 || mean > 1.1 {
		t.Errorf("poisson mean intensity = %.3f, want ~1", mean)
	}
}

func TestArrivalBurstyExceedsNominal(t *testing.T) {
	bursts := 0
	for _, m := range schedule(ArrivalBursty, 3, 1, 400, 0.005) {
		if m > 2 {
			bursts++
		}
	}
	if bursts == 0 {
		t.Error("bursty schedule never burst over 400 epochs")
	}
}

func TestArrivalValidation(t *testing.T) {
	if _, err := (ArrivalConfig{Kind: "nope"}).kind(); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, k := range []ArrivalKind{"", ArrivalSteady, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal} {
		if _, err := (ArrivalConfig{Kind: k}).kind(); err != nil {
			t.Errorf("kind %q rejected: %v", k, err)
		}
	}
}
