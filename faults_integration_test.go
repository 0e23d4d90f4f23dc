package memscale

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/faults"
	"memscale/internal/runner"
	"memscale/internal/telemetry"
)

// faultedConfig is a small, fast run with telemetry events retained in
// full, so the reconciliation checks can count every injected fault.
func faultedConfig(fc *FaultConfig) RunConfig {
	return RunConfig{
		Mix: "MID1", Policy: "MemScale",
		Epochs: 4, Cores: 8, Channels: 2,
		Telemetry: &TelemetryConfig{Events: true, EventRingSize: 1 << 16},
		Faults:    fc,
	}
}

// TestFaultClassesDegradeGracefully drives each fault class at rate
// 1.0 — every epoch disturbed — and checks the degradation contract:
// the run still completes, the accumulated CPI slack never goes
// negative, and the telemetry counters reconcile exactly with the
// event stream and the per-run fault counts.
func TestFaultClassesDegradeGracefully(t *testing.T) {
	cases := []struct {
		name  string
		fc    FaultConfig
		class string // FaultCounts key the class must populate
	}{
		{"refresh-storm", FaultConfig{Seed: 5, RefreshStormRate: 1}, "refresh_storm"},
		{"relock-failure", FaultConfig{Seed: 5, RelockFailRate: 1}, "relock_failure"},
		{"counter-corruption", FaultConfig{Seed: 5, CounterCorruptRate: 1}, "counter_corruption"},
		{"thermal-emergency", FaultConfig{Seed: 5, ThermalRate: 1}, "thermal_emergency"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sum, err := Run(faultedConfig(&tc.fc))
			if err != nil {
				t.Fatalf("faulted run failed: %v", err)
			}
			if sum.DurationSeconds <= 0 || sum.MemoryEnergyJ <= 0 {
				t.Fatalf("degenerate summary: %+v", sum)
			}
			if sum.FaultCounts[tc.class] == 0 {
				t.Fatalf("FaultCounts[%q] = 0, want > 0 (counts: %v)", tc.class, sum.FaultCounts)
			}
			if sum.DegradedEpochs == 0 {
				t.Error("no epochs marked degraded at rate 1.0")
			}
			ex := sum.Telemetry
			if ex == nil {
				t.Fatal("telemetry export missing")
			}
			if ex.DroppedEvents != 0 {
				t.Fatalf("%d events dropped; reconciliation needs the full stream", ex.DroppedEvents)
			}

			// Count the fault plane's footprint in the event stream.
			perClass := map[string]uint64{}
			var faultEvents, degradedEvents, abandoned uint64
			for _, ev := range ex.Events {
				switch ev.Kind {
				case telemetry.EvFault:
					faultEvents++
					perClass[faults.Kind(ev.A).String()]++
					if faults.Kind(ev.A) == faults.KindRelock && ev.B < 0 {
						abandoned++
					}
				case telemetry.EvDegraded:
					degradedEvents++
				case telemetry.EvSlack:
					if ev.F2 < 0 {
						t.Errorf("epoch %d core %d: accumulated slack %g s < 0",
							ev.Epoch, ev.Core, ev.F2)
					}
				}
			}

			// Every applied in-run fault records exactly one event, one
			// counter increment, and one FaultCounts unit.
			if got := ex.Counters["faults_injected"]; got != faultEvents {
				t.Errorf("faults_injected counter = %d, event stream has %d", got, faultEvents)
			}
			if got := ex.Counters["degraded_epochs"]; got != sum.DegradedEpochs {
				t.Errorf("degraded_epochs counter = %d, summary says %d", got, sum.DegradedEpochs)
			}
			if degradedEvents != sum.DegradedEpochs {
				t.Errorf("%d degraded events, summary says %d", degradedEvents, sum.DegradedEpochs)
			}
			for _, class := range []string{"refresh_storm", "relock_failure",
				"counter_corruption", "thermal_emergency"} {
				if perClass[class] != sum.FaultCounts[class] {
					t.Errorf("%s: %d events vs %d counted",
						class, perClass[class], sum.FaultCounts[class])
				}
			}
			if abandoned != sum.FaultCounts["relock_abandoned"] {
				t.Errorf("abandoned relocks: %d events vs %d counted",
					abandoned, sum.FaultCounts["relock_abandoned"])
			}
			if sum.DegradedEpochs != sum.FaultCounts["degraded_epochs"] {
				t.Errorf("DegradedEpochs %d != FaultCounts[degraded_epochs] %d",
					sum.DegradedEpochs, sum.FaultCounts["degraded_epochs"])
			}
		})
	}
}

// TestFaultDeterminism: the same seed must reproduce the same fault
// schedule bit for bit: the whole summary, telemetry export included.
func TestFaultDeterminism(t *testing.T) {
	fc := FaultConfig{
		Seed:               11,
		RefreshStormRate:   0.5,
		RelockFailRate:     0.5,
		CounterCorruptRate: 0.4,
		ThermalRate:        0.4,
	}
	rc := faultedConfig(&fc)

	a, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "same fault seed", a, b)

	// A different seed must be allowed to disturb differently: at these
	// rates the schedules are overwhelmingly unlikely to coincide.
	fc2 := fc
	fc2.Seed = 12
	rc2 := rc
	rc2.Faults = &fc2
	c, err := Run(rc2)
	if err != nil {
		t.Fatal(err)
	}
	if bitdiff.Diff(a.FaultCounts, c.FaultCounts) == "" && a.MemoryEnergyJ == c.MemoryEnergyJ {
		t.Error("different fault seeds produced identical runs")
	}
}

// TestSweepSurvivesFaultsAndPanic is the acceptance scenario: a sweep
// of 8 fault-injected jobs plus one job rigged to panic mid-run. The
// panicked job must report ErrRunPanicked; every other job must return
// a valid summary; and rerunning the grid with the same seeds must
// reproduce the fault counts and energies exactly.
func TestSweepSurvivesFaultsAndPanic(t *testing.T) {
	base := RunConfig{Epochs: 3, Cores: 4, Channels: 2}
	runs := Grid(base, []string{"ILP2", "MID1", "MEM2", "MID3"}, []string{"MemScale", "Fast-PD"})
	for i := range runs {
		runs[i].Faults = &FaultConfig{
			Seed:               uint64(100 + i),
			RefreshStormRate:   0.5,
			RelockFailRate:     0.5,
			CounterCorruptRate: 0.4,
			ThermalRate:        0.4,
		}
	}
	poisoned := base
	poisoned.Mix, poisoned.Policy = "ILP3", "MemScale"
	poisoned.Faults = &FaultConfig{Seed: 9, InjectPanic: true, PanicEpoch: 1}
	runs = append(runs, poisoned)
	panicIdx := len(runs) - 1

	do := func() ([]RunSummary, error) {
		return Sweep(context.Background(), SweepConfig{Runs: runs, Workers: 4})
	}
	sums, err := do()
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("sweep error %v does not report the panicked job", err)
	}
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error chain carries no *runner.PanicError: %v", err)
	}
	if ip, ok := pe.Value.(faults.InjectedPanic); !ok || ip.Epoch != 1 {
		t.Errorf("panic value = %#v, want faults.InjectedPanic{Epoch: 1}", pe.Value)
	}
	if sums[panicIdx].DurationSeconds != 0 {
		t.Errorf("panicked job left a non-zero summary: %+v", sums[panicIdx])
	}
	for i := 0; i < panicIdx; i++ {
		if sums[i].DurationSeconds <= 0 || sums[i].MemoryEnergyJ <= 0 {
			t.Errorf("job %d (%s/%s) summary degenerate: %+v",
				i, runs[i].Mix, runs[i].Policy, sums[i])
		}
		if sums[i].Attempts < 1 {
			t.Errorf("job %d reports %d attempts", i, sums[i].Attempts)
		}
	}

	again, err := do()
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("rerun error = %v", err)
	}
	for i := 0; i < panicIdx; i++ {
		bitdiff.Same(t, fmt.Sprintf("job %d rerun", i), sums[i], again[i])
	}
}
