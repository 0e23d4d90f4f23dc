package exp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

// quickParams keeps experiment unit tests fast: two quanta per run.
func quickParams() Params {
	p := DefaultParams()
	p.Epochs = 2
	p.TimelineEpochs = 3
	return p
}

func TestTable2Renders(t *testing.T) {
	r := quickParams().Table2()
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{"Table 2", "tRCD", "15.00ns", "VDD", "800 733"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
}

// TestForEachMix: the per-mix fan-out behind Table 1 and Figure 2
// fills every mix's slot on a pool of workers, logs each mix that
// finished once, and reports the first error in mix order.
func TestForEachMix(t *testing.T) {
	var log bytes.Buffer
	p := quickParams()
	p.Workers = 4
	p.Progress = &log
	names := make([]string, len(workload.Mixes))
	err := p.forEachMix(func(i int, mix workload.Mix) error {
		names[i] = mix.Name
		return nil
	}, func(i int) { p.logf("%s", names[i]) })
	if err != nil {
		t.Fatal(err)
	}
	logged := map[string]int{}
	for _, line := range strings.Fields(log.String()) {
		logged[line]++
	}
	for i, mix := range workload.Mixes {
		if names[i] != mix.Name || logged[mix.Name] != 1 {
			t.Errorf("mix %d: slot %q, logged %d times, want %q once", i, names[i], logged[mix.Name], mix.Name)
		}
	}

	first, second := errors.New("first"), errors.New("second")
	err = p.forEachMix(func(i int, _ workload.Mix) error {
		switch i {
		case 3:
			return first
		case 7:
			return second
		}
		return nil
	}, func(i int) {
		if i == 3 || i == 7 {
			t.Errorf("mix %d failed but was logged", i)
		}
	})
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Errorf("err = %v, want the first failing mix's error alone", err)
	}
}

func TestRunPairBaselineIdentity(t *testing.T) {
	p := quickParams()
	mix, _ := workload.ByName("ILP2")
	out, err := p.engine().Run(p.ctx(), p.job(nil, mix, policies.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	// The "policy" is the baseline itself: zero savings, zero CPI
	// change (identical deterministic runs).
	if s := out.SystemSavings(); s != 0 {
		t.Errorf("baseline-vs-baseline system savings = %g", s)
	}
	if s := out.MemorySavings(); s != 0 {
		t.Errorf("baseline-vs-baseline memory savings = %g", s)
	}
	avg, worst := out.CPIIncrease()
	if avg != 0 || worst != 0 {
		t.Errorf("baseline-vs-baseline CPI increase = %g/%g", avg, worst)
	}
	if out.NonMem <= 0 {
		t.Error("calibrated rest-of-system power must be positive")
	}
}

func TestRunPairMemScaleILP(t *testing.T) {
	p := quickParams()
	p.Epochs = 4
	mix, _ := workload.ByName("ILP3")
	out, err := p.engine().Run(p.ctx(), p.job(nil, mix, policies.MemScale))
	if err != nil {
		t.Fatal(err)
	}
	if s := out.MemorySavings(); s < 0.20 {
		t.Errorf("ILP3 memory savings = %.1f%%, want > 20%%", s*100)
	}
	_, worst := out.CPIIncrease()
	if worst > p.Gamma+0.02 {
		t.Errorf("worst CPI increase %.1f%% exceeds bound", worst*100)
	}
}

func TestPolicySpecsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every policy spec")
	}
	p := quickParams()
	mix, _ := workload.ByName("MID1")
	for _, spec := range policies.All() {
		out, err := p.engine().Run(p.ctx(), p.job(nil, mix, spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if out.Res.Duration <= 0 {
			t.Errorf("%s: empty run", spec.Name)
		}
	}
}

func TestFigure9To11Rendering(t *testing.T) {
	// Render from a synthetic grid (no simulation).
	mix, _ := workload.ByName("MID1")
	mk := func(memJ, baseMemJ float64) Outcome {
		res := sim.Result{Duration: config.Second}
		res.Memory.Background = memJ
		res.CPI = make([]float64, 16)
		base := sim.Result{Duration: config.Second}
		base.Memory.Background = baseMemJ
		base.CPI = make([]float64, 16)
		for i := range res.CPI {
			res.CPI[i] = 1.05
			base.CPI[i] = 1.0
		}
		return Outcome{Mix: mix, Policy: "X", NonMem: 50, Base: base, Res: res}
	}
	grid := map[string][]Outcome{"X": {mk(20, 40)}}
	names := []string{"X"}
	var b strings.Builder
	Figure9(grid, names).Render(&b)
	Figure10(grid, names).Render(&b)
	Figure11(grid, names).Render(&b)
	out := b.String()
	for _, want := range []string{"Figure 9", "Figure 10", "Figure 11", "Baseline", "5.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figures missing %q:\n%s", want, out)
		}
	}
}

func TestOutcomeMetrics(t *testing.T) {
	mix, _ := workload.ByName("MEM1")
	res := sim.Result{Duration: config.Second}
	res.Memory.Background = 30
	res.CPI = []float64{2.2, 1.1, 1.1, 1.1, 2.2, 1.1, 1.1, 1.1, 2.2, 1.1, 1.1, 1.1, 2.2, 1.1, 1.1, 1.1}
	base := sim.Result{Duration: config.Second}
	base.Memory.Background = 60
	base.CPI = []float64{2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0}
	out := Outcome{Mix: mix, NonMem: 60, Base: base, Res: res}
	if got := out.MemorySavings(); got != 0.5 {
		t.Errorf("memory savings = %g", got)
	}
	// System: (30+60)/(60+60) = 0.75 -> 25% savings.
	if got := out.SystemSavings(); got != 0.25 {
		t.Errorf("system savings = %g", got)
	}
	avg, worst := out.CPIIncrease()
	if avg < 0.099 || avg > 0.101 || worst < 0.099 || worst > 0.101 {
		t.Errorf("CPI increases = %g/%g, want ~0.10", avg, worst)
	}
}
