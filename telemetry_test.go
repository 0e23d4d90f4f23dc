package memscale

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"memscale/internal/bitdiff"
)

// telemetryRC is the small machine shape the telemetry tests run on.
func telemetryRC(tc *TelemetryConfig) RunConfig {
	return RunConfig{
		Mix: "MID1", Policy: "MemScale",
		Epochs: 2, Cores: 4, Channels: 2,
		Telemetry: tc,
	}
}

// TestTelemetryReconciliation is the acceptance check: the exported
// telemetry's energy and residency totals must reconcile with the
// RunSummary the same run reports, and the per-epoch snapshots must
// partition those totals.
func TestTelemetryReconciliation(t *testing.T) {
	sum, err := Run(telemetryRC(&TelemetryConfig{Events: true}))
	if err != nil {
		t.Fatal(err)
	}
	exp := sum.Telemetry
	if exp == nil {
		t.Fatal("run requested telemetry but summary carries none")
	}

	// Totals: the recorder accumulates the very intervals the power
	// meter integrates, in the same order, so equality is exact.
	if got := exp.Energy.Memory(); got != sum.MemoryEnergyJ {
		t.Errorf("telemetry memory energy = %g J, summary = %g J", got, sum.MemoryEnergyJ)
	}
	if exp.DurationSeconds != sum.DurationSeconds {
		t.Errorf("telemetry duration = %g s, summary = %g s", exp.DurationSeconds, sum.DurationSeconds)
	}
	for f, s := range sum.FreqSeconds {
		if exp.FreqSeconds[f] != s {
			t.Errorf("freq %d MHz: telemetry %g s, summary %g s", f, exp.FreqSeconds[f], s)
		}
	}

	// Per-epoch energies partition the run total (float sums regrouped
	// per epoch: equal to within rounding).
	if len(exp.Epochs) != 2 {
		t.Fatalf("exported %d epochs, want 2", len(exp.Epochs))
	}
	var epochEnergy float64
	var epochResidency int64
	for _, ep := range exp.Epochs {
		epochEnergy += ep.Energy.Memory()
		epochResidency += int64(ep.Residency.Total())
	}
	if diff := math.Abs(epochEnergy - sum.MemoryEnergyJ); diff > 1e-12*math.Abs(sum.MemoryEnergyJ) {
		t.Errorf("per-epoch energy sums to %g J, run total %g J", epochEnergy, sum.MemoryEnergyJ)
	}
	// Residency is integer picoseconds: the partition is exact, and the
	// total conserves rank-time (duration x ranks), relocks included.
	if got := int64(exp.Residency.Total()); epochResidency != got {
		t.Errorf("per-epoch residency sums to %d ps, run total %d ps", epochResidency, got)
	}

	// The export round-trips through the JSONL interchange format
	// losslessly.
	var buf bytes.Buffer
	if err := WriteTelemetry(&buf, sum); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d runs, want 1", len(back))
	}
	bitdiff.Same(t, "JSONL round trip", exp, back[0])
}

// TestTelemetryZeroInterference: requesting telemetry must not perturb
// the simulation. Every summary field but the fired-event count (the
// recorder keeps the controller off its deferred-precharge paths) and
// the export itself must match the plain run bit for bit, and the plain
// run must export nothing.
func TestTelemetryZeroInterference(t *testing.T) {
	plain, err := Run(telemetryRC(nil))
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := Run(telemetryRC(&TelemetryConfig{Events: true}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Error("telemetry exported without being requested")
	}
	bitdiff.Same(t, "instrumented run", plain, instrumented, "Events", "Telemetry")
}

// TestTelemetrySweepAggregation runs a telemetry-enabled grid on a
// full worker pool (the -race CI job turns this into the data-race
// smoke test) and checks the race-free cross-run rollup.
func TestTelemetrySweepAggregation(t *testing.T) {
	tc := &TelemetryConfig{Events: true}
	grid := Grid(
		RunConfig{Epochs: 1, Cores: 4, Channels: 2, Telemetry: tc},
		[]string{"MID1", "MEM1"},
		[]string{"MemScale", "Static"},
	)
	sums, err := Sweep(context.Background(), SweepConfig{
		Runs:    grid,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}

	ro := AggregateTelemetry(sums...)
	if ro.Runs != len(grid) {
		t.Fatalf("rollup has %d runs, want %d", ro.Runs, len(grid))
	}
	var duration, energy float64
	for _, s := range sums {
		if s.Telemetry == nil {
			t.Fatalf("%s/%s: no telemetry export", s.Mix, s.Policy)
		}
		if s.Telemetry.Meta.Mix != s.Mix || s.Telemetry.Meta.Policy != s.Policy {
			t.Errorf("export meta %s/%s under summary %s/%s",
				s.Telemetry.Meta.Mix, s.Telemetry.Meta.Policy, s.Mix, s.Policy)
		}
		duration += s.DurationSeconds
		energy += s.MemoryEnergyJ
	}
	if ro.DurationSeconds != duration {
		t.Errorf("rollup duration = %g s, want %g s", ro.DurationSeconds, duration)
	}
	if diff := math.Abs(ro.Energy.Memory() - energy); diff > 1e-12*energy {
		t.Errorf("rollup energy = %g J, want %g J", ro.Energy.Memory(), energy)
	}
	if h := ro.Histograms["read_latency"]; h == nil || h.Count == 0 {
		t.Error("rollup lost the merged read-latency histogram")
	}
}

// TestTelemetrySchemaVersion: WriteTelemetry stamps the interchange
// version on every run record; ReadTelemetry accepts matching-major
// streams (including unversioned pre-1.1 ones) and rejects foreign
// majors with the typed error.
func TestTelemetrySchemaVersion(t *testing.T) {
	sum, err := Run(telemetryRC(&TelemetryConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTelemetry(&buf, sum); err != nil {
		t.Fatal(err)
	}
	wire := buf.String()
	if !strings.Contains(wire, `"schema_version":"`+TelemetrySchemaVersion+`"`) {
		t.Fatalf("stream is not stamped with schema version %s:\n%.200s",
			TelemetrySchemaVersion, wire)
	}
	if sum.Telemetry.SchemaVersion != "" {
		t.Error("WriteTelemetry mutated the caller's export")
	}

	runs, err := ReadTelemetry(strings.NewReader(wire))
	if err != nil || len(runs) != 1 {
		t.Fatalf("ReadTelemetry = (%d runs, %v)", len(runs), err)
	}
	if runs[0].SchemaVersion != TelemetrySchemaVersion {
		t.Errorf("read back version %q", runs[0].SchemaVersion)
	}

	// Unversioned streams predate the stamp and read as 1.0 — same
	// major, accepted.
	legacy := strings.Replace(wire, `"schema_version":"`+TelemetrySchemaVersion+`",`, "", 1)
	if _, err := ReadTelemetry(strings.NewReader(legacy)); err != nil {
		t.Errorf("unversioned stream rejected: %v", err)
	}

	// A future major is incompatible by definition.
	future := strings.Replace(wire, `"schema_version":"`+TelemetrySchemaVersion+`"`,
		`"schema_version":"2.0"`, 1)
	_, err = ReadTelemetry(strings.NewReader(future))
	var sv *SchemaVersionError
	if !errors.As(err, &sv) {
		t.Fatalf("major-2 stream: err = %v, want *SchemaVersionError", err)
	}
	if sv.Version != "2.0" || sv.Line != 1 {
		t.Errorf("error detail = %+v", sv)
	}

	// Minor skew within the major stays readable.
	minor := strings.Replace(wire, `"schema_version":"`+TelemetrySchemaVersion+`"`,
		`"schema_version":"1.999"`, 1)
	if _, err := ReadTelemetry(strings.NewReader(minor)); err != nil {
		t.Errorf("minor-skewed stream rejected: %v", err)
	}
}

// TestTelemetryExportPinned pins the SHA-256 of the canonical JSONL
// export for every golden config with the event stream on. Events
// export in the order they fired and each histogram's Sum accumulates
// in observation order, so any change to event emission, to the record
// order, or to the simulated sequence itself moves these digests and
// must re-pin them deliberately.
func TestTelemetryExportPinned(t *testing.T) {
	pins := map[string]string{
		"MEM1/MemScale":           "c3180adcfc45c4fb617ef6935266df051b84879f07c61b5ecf6c87b4f0418899",
		"ILP1/Static":             "818a06d1154d137daf44e04d7ec9265d87f508ed02716725c091fbb575f7b033",
		"MID2/MemScale + Fast-PD": "0c6bc817384d759e0c3c635b721ae7015c3cd0f828421d6711c4808b735ea99d",
		"MID3/Slow-PD":            "bf2219c40ebdb8be611732c325615bfceaf609a515b85d7a1fd814bb7cd585e0",
		"MID1/MemScale":           "b664387b6351b738ac486732c8396f74157164ac7a97499a0fb071b31a432bae",
	}
	ctx := context.Background()
	for _, rc := range goldenConfigs() {
		rc.Telemetry = &TelemetryConfig{Events: true}
		name := rc.Mix + "/" + rc.Policy
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sum, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := exportDigest(t, sum.Telemetry); got != pins[name] {
				t.Errorf("canonical telemetry SHA-256 = %s, want %s", got, pins[name])
			}
		})
	}
}

// exportDigest is the SHA-256 of an export's canonical JSONL.
func exportDigest(t *testing.T, e *TelemetryExport) string {
	t.Helper()
	jsonl, err := bitdiff.CanonicalJSONL(e)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.Sum256(jsonl)
	return hex.EncodeToString(d[:])
}
