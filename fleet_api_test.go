package memscale

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"memscale/internal/bitdiff"
)

// TestFleetSummarySchemaVersion pins the interchange versioning
// contract: writes stamp the current version, unversioned pre-1.1
// summaries still read, and an unknown major version fails with the
// typed error — never a mis-parsed summary.
func TestFleetSummarySchemaVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFleetSummary(&buf, FleetSummary{Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version": "`+FleetSchemaVersion+`"`) {
		t.Errorf("written summary is not stamped with %q:\n%s", FleetSchemaVersion, buf.String())
	}
	back, err := ReadFleetSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != FleetSchemaVersion || back.Nodes != 3 {
		t.Errorf("round trip = %+v, want schema %q and 3 nodes", back, FleetSchemaVersion)
	}

	if _, err := ReadFleetSummary(strings.NewReader(`{"nodes":2}`)); err != nil {
		t.Errorf("unversioned pre-1.1 summary rejected: %v", err)
	}
	if _, err := ReadFleetSummary(strings.NewReader(`{"schema_version":"1.9","nodes":2}`)); err != nil {
		t.Errorf("same-major newer minor rejected: %v", err)
	}
	// A 1.2 summary still carries the retired self-healing fields;
	// they are ignored.
	old, err := ReadFleetSummary(strings.NewReader(`{"schema_version":"1.2","nodes":2,` +
		`"recoveries":3,"lost_nodes":[1],"degraded_nodes":[0],"dead_nodes":1,` +
		`"per_node":[{"node":0,"attempts":3,"crashes":4},{"node":1,"dead":true,"lost":true}]}`))
	if err != nil {
		t.Errorf("1.2 summary with self-healing fields rejected: %v", err)
	}
	if old.Nodes != 2 || old.DeadNodes != 1 || len(old.PerNode) != 2 || !old.PerNode[1].Dead {
		t.Errorf("1.2 summary read as %+v", old)
	}

	_, err = ReadFleetSummary(strings.NewReader(`{"schema_version":"2.0","nodes":2}`))
	var sve *FleetSchemaVersionError
	if !errors.As(err, &sve) {
		t.Fatalf("unknown major: err = %v, want *FleetSchemaVersionError", err)
	}
	if sve.Version != "2.0" {
		t.Errorf("error carries version %q, want \"2.0\"", sve.Version)
	}
}

func quickFleet(workers int) FleetConfig {
	return FleetConfig{
		Groups: []NodeGroup{
			{Name: "web", Nodes: 3, Mix: "ILP1", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalPoisson}},
			{Name: "cache", Nodes: 2, Mix: "MID2", Cores: 2, Channels: 1,
				Arrival: ArrivalConfig{Kind: ArrivalDiurnal}},
		},
		Epochs:       4,
		PowerBudgetW: 30,
		Seed:         11,
		Workers:      workers,
	}
}

// TestRunFleetDeterministicAcrossWorkers is the public-API face of the
// fleet determinism guarantee: the same FleetConfig produces a
// bit-identical FleetSummary regardless of worker count.
func TestRunFleetDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	a, errA := RunFleet(context.Background(), quickFleet(1))
	b, errB := RunFleet(context.Background(), quickFleet(3))
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	bitdiff.Same(t, "1 vs 3 workers", a, b)
}

// TestFleetSummaryInterchange: the JSON and CSV views survive a full
// write/read cycle and carry the rows memscale-report renders.
func TestFleetSummaryInterchange(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	sum, err := RunFleet(context.Background(), quickFleet(0))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteFleetSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFleetSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != sum.Nodes || back.SER != sum.SER || len(back.PerNode) != len(sum.PerNode) {
		t.Errorf("round-trip mangled summary: %+v vs %+v", back, sum)
	}

	var nodes bytes.Buffer
	if err := WriteFleetNodesCSV(&nodes, sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(nodes.String()), "\n")
	if len(lines) != 1+sum.Nodes {
		t.Errorf("nodes CSV has %d lines, want header + %d", len(lines), sum.Nodes)
	}
	if !strings.HasPrefix(lines[0], "node,group,") {
		t.Errorf("nodes CSV header = %q", lines[0])
	}

	var caps bytes.Buffer
	if err := WriteFleetCapsCSV(&caps, sum); err != nil {
		t.Fatal(err)
	}
	capLines := strings.Split(strings.TrimSpace(caps.String()), "\n")
	if len(capLines) != 1+len(sum.CapTrace) {
		t.Errorf("caps CSV has %d lines, want header + %d", len(capLines), len(sum.CapTrace))
	}
}

// TestRunFleetSoftStop: a soft stop reports ErrInterrupted with a
// partial summary marked interrupted, which the usual writers carry
// through a full write/read cycle.
func TestRunFleetSoftStop(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet run")
	}
	stop := make(chan struct{})
	close(stop)
	fc := quickFleet(0)
	fc.Interrupt = stop
	sum, err := RunFleet(context.Background(), fc)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !sum.Interrupted || sum.EpochsCompleted != 0 || sum.Nodes != 5 || len(sum.PerNode) != 5 {
		t.Fatalf("summary: interrupted %v at epoch %d, %d nodes, %d rows",
			sum.Interrupted, sum.EpochsCompleted, sum.Nodes, len(sum.PerNode))
	}

	var buf bytes.Buffer
	if err := WriteFleetSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFleetSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum.SchemaVersion = FleetSchemaVersion
	bitdiff.Same(t, "partial summary round trip", sum, back)

	var nodes bytes.Buffer
	if err := WriteFleetNodesCSV(&nodes, sum); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(nodes.String(), "\n"); lines != 1+sum.Nodes {
		t.Errorf("nodes CSV has %d lines, want header + %d", lines, sum.Nodes)
	}
}

// TestRunFleetScaleValidates: a four-digit fleet validates without
// touching the simulator; Validate resolves every group's mix, policy
// and machine, as RunFleet does before its first node is built.
func TestRunFleetScaleValidates(t *testing.T) {
	fc := FleetConfig{
		Groups: []NodeGroup{
			{Name: "web", Nodes: 700, Mix: "MID1",
				Arrival: ArrivalConfig{Kind: ArrivalDiurnal}},
			{Name: "batch", Nodes: 300, Mix: "MEM2",
				Arrival: ArrivalConfig{Kind: ArrivalBursty}},
		},
		PowerBudgetW: 20000,
	}
	if err := fc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunFleetCappedPinned holds a small capped fleet to absolute
// bits: node streams are salted with the fleet seed and each node's
// global index, so a change to how nodes draw their traces, pair their
// baselines or share the budget moves these values.
func TestRunFleetCappedPinned(t *testing.T) {
	fc := FleetConfig{
		Epochs:       3,
		Seed:         11,
		PowerBudgetW: 400,
		Groups: []NodeGroup{
			{Name: "mem", Nodes: 2, Mix: "MEM1", Cores: 4},
			{Name: "mid", Nodes: 2, Mix: "MID1", Cores: 4},
		},
	}
	got, err := RunFleet(context.Background(), fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    float64
		want uint64
	}{
		{"SER", got.SER, 0x3fe9c783fb41b5d4},
		{"AvgCPIIncrease", got.AvgCPIIncrease, 0x3fb593326fbccb70},
		{"MemAvgPowerW", got.MemAvgPowerW, 0x4054d85e9a7029ee},
	} {
		if b := math.Float64bits(c.v); b != c.want {
			t.Errorf("%s = %v (%#x), want %#x", c.name, c.v, b, c.want)
		}
	}
}
