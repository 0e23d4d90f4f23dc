package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"memscale/internal/faults"
	"memscale/internal/policies"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// chaosConfig is testConfig armed with the self-healing plane: every
// node draws fleet-scope disturbances from fc and recovers under rec.
func chaosConfig(t *testing.T, workers int, fc faults.Config, rec *RecoverySpec) Config {
	t.Helper()
	c := testConfig(t, workers)
	for gi := range c.Groups {
		f := fc
		c.Groups[gi].Faults = &f
	}
	c.Recovery = rec
	return c
}

// sameSurvivorMetrics asserts every simulated metric of the chaos
// run's summary is Float64bits-identical to the undisturbed reference:
// the acceptance contract for transparent recovery. Bookkeeping that
// legitimately differs (restart counts, replayed events, re-run
// invariant checks) is excluded.
func sameSurvivorMetrics(t *testing.T, ref, got Summary) {
	t.Helper()
	bits := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s differs: %v vs %v", name, a, b)
		}
	}
	bits("SER", ref.SER, got.SER)
	bits("AvgCPIIncrease", ref.AvgCPIIncrease, got.AvgCPIIncrease)
	bits("P99CPIIncrease", ref.P99CPIIncrease, got.P99CPIIncrease)
	bits("MemoryEnergyJ", ref.MemoryEnergyJ, got.MemoryEnergyJ)
	bits("SystemEnergyJ", ref.SystemEnergyJ, got.SystemEnergyJ)
	bits("BaselineSysJ", ref.BaselineSysJ, got.BaselineSysJ)
	bits("MemAvgPowerW", ref.MemAvgPowerW, got.MemAvgPowerW)
	bits("ConstrainedFrac", ref.ConstrainedFrac, got.ConstrainedFrac)
	if len(ref.PerNode) != len(got.PerNode) {
		t.Fatalf("node count differs: %d vs %d", len(ref.PerNode), len(got.PerNode))
	}
	for i := range ref.PerNode {
		r, g := ref.PerNode[i], got.PerNode[i]
		if g.Dead {
			t.Errorf("node %d died under chaos: %s", g.Node, g.Err)
			continue
		}
		bits("node MemoryEnergyJ", r.MemoryEnergyJ, g.MemoryEnergyJ)
		bits("node SystemEnergyJ", r.SystemEnergyJ, g.SystemEnergyJ)
		bits("node SER", r.SER, g.SER)
		bits("node CPIIncrease", r.CPIIncrease, g.CPIIncrease)
		if r.CappedEpochs != g.CappedEpochs || r.FinalCapMHz != g.FinalCapMHz {
			t.Errorf("node %d cap outcome differs: (%d, %d) vs (%d, %d)",
				g.Node, r.CappedEpochs, r.FinalCapMHz, g.CappedEpochs, g.FinalCapMHz)
		}
	}
	ja, _ := json.Marshal(ref.CapTrace)
	jb, _ := json.Marshal(got.CapTrace)
	if string(ja) != string(jb) {
		t.Errorf("cap traces differ:\n%s\nvs\n%s", ja, jb)
	}
}

// TestChaosRecoveryTransparent is the acceptance golden: a fleet with
// injected node crashes (and checkpoint recovery) produces
// Float64bits-identical survivor metrics to the same-seed run with no
// crashes, because every crash is restored and replayed to the window
// boundary before the coordinator looks.
func TestChaosRecoveryTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	ref, err := Run(context.Background(), chaosConfig(t, 0, faults.Config{Seed: 11}, nil))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := Run(context.Background(), chaosConfig(t, 0,
		faults.Config{Seed: 11, NodeCrashRate: 0.35},
		&RecoverySpec{MaxRetries: 12, CheckpointEvery: 2, Backoff: time.Microsecond}))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got.Recoveries == 0 {
		t.Fatal("chaos run performed no recoveries; the test exercised nothing")
	}
	if got.DeadNodes != 0 {
		t.Fatalf("chaos run lost %d nodes with a generous retry budget", got.DeadNodes)
	}
	if len(got.DegradedNodes) == 0 {
		t.Error("no degraded nodes reported despite recoveries")
	}
	if got.InvariantChecks == 0 || ref.InvariantChecks == 0 {
		t.Error("invariant plane recorded no checks")
	}
	sameSurvivorMetrics(t, ref, got)
}

// partitionedChaosConfig is a channel-partitioned fleet: one group of
// MEM1/part nodes with one application per memory channel, the
// placement the Section 6 per-channel extension runs on.
func partitionedChaosConfig(t *testing.T, fc faults.Config, rec *RecoverySpec) Config {
	t.Helper()
	mem, err := workload.ByName("MEM1" + workload.PartitionedSuffix)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := policies.ByName("MemScale")
	if err != nil {
		t.Fatal(err)
	}
	f := fc
	return Config{
		Groups: []GroupSpec{
			{Name: "mem", Nodes: 3, Mix: mem, Spec: spec, Cores: 4, Channels: 4,
				Arrival: ArrivalSpec{Kind: ArrivalPoisson, UsersPerNode: 200, RequestsPerUserHz: 10},
				Faults:  &f},
		},
		Epochs:   4,
		BudgetW:  40,
		Seed:     7,
		Recovery: rec,
	}
}

// TestChaosPartitionedRecovery runs the recovery plane on a
// channel-partitioned fleet: nodes crash mid-window, restore from
// their periodic checkpoints, and replay — and the survivor metrics
// must still be Float64bits-identical to the undisturbed same-seed
// run.
func TestChaosPartitionedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	ref, err := Run(context.Background(), partitionedChaosConfig(t, faults.Config{Seed: 11}, nil))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := Run(context.Background(), partitionedChaosConfig(t,
		faults.Config{Seed: 11, NodeCrashRate: 0.35},
		&RecoverySpec{MaxRetries: 12, CheckpointEvery: 2, Backoff: time.Microsecond}))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if got.Recoveries == 0 {
		t.Fatal("chaos run performed no recoveries; the test exercised nothing")
	}
	if got.DeadNodes != 0 {
		t.Fatalf("chaos run lost %d nodes with a generous retry budget", got.DeadNodes)
	}
	sameSurvivorMetrics(t, ref, got)
}

// TestChaosCorruptCheckpointFallback: when every periodic snapshot is
// corrupted at write time, restarts fall back to a from-scratch
// replay — slower, but still bit-transparent.
func TestChaosCorruptCheckpointFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	ref, err := Run(context.Background(), chaosConfig(t, 0, faults.Config{Seed: 3}, nil))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	// Every snapshot is corrupted, so each restart replays from scratch
	// and re-rolls the crash schedule over the whole replayed prefix;
	// keep the crash rate low and the retry budget wide so nodes
	// deterministically make it through.
	got, err := Run(context.Background(), chaosConfig(t, 0,
		faults.Config{Seed: 3, NodeCrashRate: 0.15, CheckpointCorruptRate: 1.0},
		&RecoverySpec{MaxRetries: 40, CheckpointEvery: 1, Backoff: time.Microsecond}))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	var corrupt, replayed int
	for _, ns := range got.PerNode {
		corrupt += ns.CorruptCheckpoints
		replayed += ns.RecoveryEpochs
	}
	if got.Recoveries == 0 || corrupt == 0 {
		t.Fatalf("expected corrupted-snapshot recoveries, got %d recoveries / %d corrupt", got.Recoveries, corrupt)
	}
	if replayed == 0 {
		t.Error("recoveries replayed no epochs")
	}
	sameSurvivorMetrics(t, ref, got)
}

// TestChaosDeterministicAcrossWorkers: the full chaos summary —
// restart counts, recovery stats, telemetry-visible loss windows, and
// every metric — is bit-identical on any worker count.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	fc := faults.Config{Seed: 5, NodeCrashRate: 0.3, CheckpointCorruptRate: 0.5, NodeLossRate: 0.2}
	rec := &RecoverySpec{MaxRetries: 12, CheckpointEvery: 2, Backoff: time.Microsecond}
	a, errA := Run(context.Background(), chaosConfig(t, 1, fc, rec))
	b, errB := Run(context.Background(), chaosConfig(t, 4, fc, rec))
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errs differ: %v / %v", errA, errB)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("chaos summaries differ across worker counts:\n%s\nvs\n%s", ja, jb)
	}
}

// TestNodeLostAfterRetryExhaustion: a node that crashes on every
// attempt exhausts its per-window restart budget and is given up with
// ErrNodeLost; the fleet keeps running and reports it in the lost set.
func TestNodeLostAfterRetryExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	c := chaosConfig(t, 0, faults.Config{Seed: 1, NodeCrashRate: 1.0},
		&RecoverySpec{MaxRetries: 2, CheckpointEvery: 1, Backoff: time.Microsecond})
	sum, err := Run(context.Background(), c)
	if !errors.Is(err, ErrNodeLost) {
		t.Fatalf("want ErrNodeLost, got %v", err)
	}
	if sum.DeadNodes != sum.Nodes {
		t.Fatalf("crash rate 1.0 should lose every node: %d/%d dead", sum.DeadNodes, sum.Nodes)
	}
	if len(sum.LostNodes) != sum.Nodes {
		t.Fatalf("lost set has %d of %d nodes", len(sum.LostNodes), sum.Nodes)
	}
	for _, ns := range sum.PerNode {
		if !ns.Dead || !ns.Lost {
			t.Errorf("node %d: dead=%v lost=%v, want both", ns.Node, ns.Dead, ns.Lost)
		}
		// MaxRetries restarts plus the first try, every one crashing.
		if ns.Attempts != 2 || ns.Crashes != 3 {
			t.Errorf("node %d: attempts=%d crashes=%d, want 2/3", ns.Node, ns.Attempts, ns.Crashes)
		}
		if !strings.Contains(ns.Err, "node lost") {
			t.Errorf("node %d error %q does not name the loss", ns.Node, ns.Err)
		}
	}
}

// TestCrashWithoutRecoveryLosesNode: with no RecoverySpec armed, an
// injected crash is immediately fatal for the node.
func TestCrashWithoutRecoveryLosesNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	sum, err := Run(context.Background(), chaosConfig(t, 0, faults.Config{Seed: 1, NodeCrashRate: 1.0}, nil))
	if !errors.Is(err, ErrNodeLost) {
		t.Fatalf("want ErrNodeLost, got %v", err)
	}
	if sum.DeadNodes != sum.Nodes {
		t.Fatalf("every node should be lost: %d/%d dead", sum.DeadNodes, sum.Nodes)
	}
	if sum.Recoveries != 0 {
		t.Fatalf("no recovery plane armed, yet %d restarts recorded", sum.Recoveries)
	}
}

// TestLossWindowsRejoin: coordinator-visible loss windows open and
// close without killing the node — the coordinator freezes its cap,
// re-water-fills the freed budget, and re-admits it on rejoin — and
// the fleet telemetry stream records both transitions.
func TestLossWindowsRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	rec := telemetry.NewRecorder(telemetry.Options{Events: true})
	c := chaosConfig(t, 0, faults.Config{Seed: 9, NodeLossRate: 0.3, NodeLossEpochs: 2}, nil)
	c.Epochs = 12
	c.Telemetry = rec
	sum, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DeadNodes != 0 {
		t.Fatalf("loss windows must not kill nodes: %d dead", sum.DeadNodes)
	}
	var windows int
	for _, ns := range sum.PerNode {
		windows += ns.LossWindows
	}
	if windows == 0 {
		t.Fatal("no loss windows opened; the test exercised nothing")
	}
	if rec.NodesLost.N == 0 {
		t.Error("telemetry recorded no node_lost events")
	}
	if rec.NodesRecovered.N == 0 {
		t.Error("telemetry recorded no rejoin events")
	}
	ex := rec.Export(telemetry.RunMeta{}, nil)
	var lost, rejoined int
	for _, ev := range ex.Events {
		switch ev.Kind {
		case telemetry.EvNodeLost:
			lost++
			if ev.A != 1 {
				t.Errorf("loss-window event should carry A=1, got %d", ev.A)
			}
		case telemetry.EvRecovered:
			rejoined++
		}
	}
	if lost == 0 || rejoined == 0 {
		t.Errorf("event stream has %d losses / %d rejoins, want both > 0", lost, rejoined)
	}
}

// TestWatchdogRecoversStraggler: a straggler sleeping past the
// per-window watchdog is treated as a timed-out node — recovered from
// its snapshot like a crash — and the simulated metrics stay
// bit-transparent (the stall exists only in host time).
func TestWatchdogRecoversStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run (host-time watchdog)")
	}
	base := testConfig(t, 0)
	base.Groups = base.Groups[:1]
	base.Groups[0].Nodes = 2
	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	c := testConfig(t, 0)
	c.Groups = c.Groups[:1]
	c.Groups[0].Nodes = 2
	fc := faults.Config{Seed: 4, StragglerRate: 0.3, StragglerDelay: 2 * time.Second}
	for gi := range c.Groups {
		f := fc
		c.Groups[gi].Faults = &f
	}
	c.Recovery = &RecoverySpec{MaxRetries: 20, CheckpointEvery: 1,
		StepTimeout: 250 * time.Millisecond, Backoff: time.Microsecond}
	got, err := Run(context.Background(), c)
	if err != nil {
		t.Fatalf("straggler run: %v", err)
	}
	var crashes int
	for _, ns := range got.PerNode {
		crashes += ns.Crashes
	}
	if crashes == 0 {
		t.Fatal("watchdog caught no stragglers; the test exercised nothing")
	}
	sameSurvivorMetrics(t, ref, got)
}

// TestInterruptWritesBundle: firing Config.Interrupt stops the fleet
// at a window boundary with ErrInterrupted and a checkpoint bundle
// carrying every live node, which round-trips through its codec.
func TestInterruptWritesBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	stop := make(chan struct{})
	close(stop)
	c := testConfig(t, 0)
	c.Interrupt = stop
	sum, bundle, err := RunWithCheckpoint(context.Background(), c)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if !sum.Interrupted {
		t.Error("summary not marked interrupted")
	}
	if bundle == nil {
		t.Fatal("no checkpoint bundle returned")
	}
	if len(bundle.Nodes) != sum.Nodes {
		t.Fatalf("bundle has %d of %d nodes", len(bundle.Nodes), sum.Nodes)
	}
	for _, nc := range bundle.Nodes {
		if nc.Checkpoint == nil || nc.Checkpoint.State == nil {
			t.Fatalf("node %d bundle entry has no state", nc.Node)
		}
	}

	var buf bytes.Buffer
	if err := WriteBundle(&buf, bundle); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(bundle.Nodes) || back.EpochsCompleted != bundle.EpochsCompleted {
		t.Fatalf("bundle round-trip mismatch: %d nodes @%d vs %d @%d",
			len(back.Nodes), back.EpochsCompleted, len(bundle.Nodes), bundle.EpochsCompleted)
	}
	if _, err := ReadBundle(strings.NewReader(`{"magic":"nope"}`)); err == nil {
		t.Fatal("foreign file accepted as a bundle")
	}
}

// TestRecoverySpecValidate: the supervisor spec rejects negatives and
// fills defaults.
func TestRecoverySpecValidate(t *testing.T) {
	for _, bad := range []RecoverySpec{
		{MaxRetries: -1},
		{CheckpointEvery: -2},
		{StepTimeout: -time.Second},
		{Backoff: -time.Millisecond},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	d := RecoverySpec{}.withDefaults()
	if d.MaxRetries != DefaultMaxRetries || d.CheckpointEvery != DefaultCheckpointEvery || d.Backoff != DefaultBackoff {
		t.Errorf("defaults not applied: %+v", d)
	}
}
