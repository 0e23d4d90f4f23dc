package core

import (
	"math"
	"testing"

	"memscale/internal/config"
	"memscale/internal/power"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

// runMix runs a mix under the given governor for d and returns the
// result.
func runMix(t *testing.T, mixName string, gov sim.Governor, d config.Time, nonMem float64) sim.Result {
	t.Helper()
	cfg := config.Default()
	mix, err := workload.ByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, streams, sim.Options{Governor: gov, NonMemPower: nonMem})
	if err != nil {
		t.Fatal(err)
	}
	return s.RunFor(d)
}

// calibrate returns the rest-of-system power for a mix from a short
// baseline run (Section 4.1's 40% DIMM share).
func calibrate(t *testing.T, mixName string) float64 {
	t.Helper()
	res := runMix(t, mixName, nil, 10*config.Millisecond, 0)
	cfg := config.Default()
	return power.NewModel(&cfg).RestOfSystemPower(res.DIMMAvgWatts)
}

func newPolicy(nonMem float64) *Policy {
	cfg := config.Default()
	return NewPolicy(&cfg, Options{NonMemPower: nonMem})
}

func TestPolicyPicksLowFrequencyForILP(t *testing.T) {
	nonMem := calibrate(t, "ILP2")
	pol := newPolicy(nonMem)
	res := runMix(t, "ILP2", pol, 30*config.Millisecond, nonMem)
	// After the first epoch the ILP mix should sit at or near the
	// bottom of the ladder.
	low := res.FreqTime[config.Freq200] + res.FreqTime[config.Freq267] + res.FreqTime[config.Freq333]
	if frac := float64(low) / float64(res.Duration); frac < 0.7 {
		t.Errorf("ILP2 spent only %.0f%% at the three lowest frequencies", frac*100)
	}
	if pol.Decisions() == 0 {
		t.Fatal("policy made no decisions")
	}
}

func TestPolicyKeepsMEMFast(t *testing.T) {
	nonMem := calibrate(t, "MEM1")
	pol := newPolicy(nonMem)
	res := runMix(t, "MEM1", pol, 30*config.Millisecond, nonMem)
	// A memory-bound mix cannot afford the bottom frequencies.
	verLow := res.FreqTime[config.Freq200] + res.FreqTime[config.Freq267]
	if frac := float64(verLow) / float64(res.Duration); frac > 0.2 {
		t.Errorf("MEM1 spent %.0f%% at 200-267 MHz; the bound should prevent that", frac*100)
	}
}

func TestCPIBoundRespected(t *testing.T) {
	for _, mixName := range []string{"ILP2", "MID1", "MEM2"} {
		nonMem := calibrate(t, mixName)
		base := runMix(t, mixName, nil, 30*config.Millisecond, nonMem)
		pol := newPolicy(nonMem)
		got := runMix(t, mixName, pol, 30*config.Millisecond, nonMem)
		for i := range got.CPI {
			inc := got.CPI[i]/base.CPI[i] - 1
			// Allow a small epsilon beyond gamma for measurement noise
			// at run edges.
			if inc > pol.Gamma()+0.02 {
				t.Errorf("%s core %d: CPI increase %.1f%% exceeds bound %.0f%%",
					mixName, i, inc*100, pol.Gamma()*100)
			}
		}
	}
}

func TestPolicySavesSystemEnergy(t *testing.T) {
	type row struct {
		mix     string
		minSave float64
	}
	rows := []row{
		{"ILP2", 0.15},
		{"MID1", 0.05},
	}
	for _, r := range rows {
		nonMem := calibrate(t, r.mix)
		base := runMix(t, r.mix, nil, 30*config.Millisecond, nonMem)
		pol := newPolicy(nonMem)
		got := runMix(t, r.mix, pol, 30*config.Millisecond, nonMem)
		save := 1 - got.SystemEnergy()/base.SystemEnergy()
		if save < r.minSave {
			t.Errorf("%s system energy savings = %.1f%%, want >= %.0f%%",
				r.mix, save*100, r.minSave*100)
		}
	}
}

func TestMemEnergyObjectiveScalesDeeper(t *testing.T) {
	nonMem := calibrate(t, "MID1")
	cfg := config.Default()
	sys := NewPolicy(&cfg, Options{NonMemPower: nonMem})
	cfg2 := config.Default()
	memOnly := NewPolicy(&cfg2, Options{NonMemPower: nonMem, Objective: MinimizeMemoryEnergy})

	rSys := runMix(t, "MID1", sys, 30*config.Millisecond, nonMem)
	rMem := runMix(t, "MID1", memOnly, 30*config.Millisecond, nonMem)

	if rMem.Memory.Memory() > rSys.Memory.Memory()*1.001 {
		t.Errorf("memory-energy objective used MORE memory energy: %.3f vs %.3f J",
			rMem.Memory.Memory(), rSys.Memory.Memory())
	}
	if memOnly.Name() == sys.Name() {
		t.Error("objectives must have distinct names")
	}
}

func TestPerfModelPredictsMeasuredCPI(t *testing.T) {
	// Run one epoch at nominal, then compare the model's CPI at the
	// profiling frequency against the measured CPI.
	cfg := config.Default()
	var captured sim.Profile
	gov := &captureGov{onProfile: func(p sim.Profile) { captured = p }}
	mix, _ := workload.ByName("MID2")
	streams, _ := mix.Streams(&cfg)
	s, _ := sim.New(cfg, streams, sim.Options{Governor: gov})
	s.RunFor(5 * config.Millisecond)

	m := NewPerfModel(&cfg)
	m.Fit(captured)
	for i := 0; i < cfg.Cores; i++ {
		pred := m.CPI(i, captured.Interval.BusFreq)
		meas := m.CPIObs[i]
		if meas <= 0 {
			continue
		}
		if rel := math.Abs(pred-meas) / meas; rel > 0.15 {
			t.Errorf("core %d: model CPI %.3f vs measured %.3f (%.0f%% off)",
				i, pred, meas, rel*100)
		}
	}
	// CPI must be monotone non-increasing in frequency.
	for i := 0; i < cfg.Cores; i++ {
		prev := 0.0
		for _, f := range config.BusFrequencies { // descending
			cpi := m.CPI(i, f)
			if cpi < prev-1e-12 {
				t.Errorf("core %d: CPI fell from %.4f to %.4f as frequency dropped", i, prev, cpi)
			}
			prev = cpi
		}
	}
}

type captureGov struct {
	onProfile func(sim.Profile)
}

func (g *captureGov) Name() string { return "capture" }
func (g *captureGov) ProfileComplete(p sim.Profile) config.FreqMHz {
	if g.onProfile != nil {
		g.onProfile(p)
	}
	return config.MaxBusFreq
}
func (g *captureGov) EpochEnd(sim.Profile) {}

func TestSlackAccumulatesWhenFast(t *testing.T) {
	nonMem := calibrate(t, "ILP2")
	pol := newPolicy(nonMem)
	runMix(t, "ILP2", pol, 25*config.Millisecond, nonMem)
	// Running an ILP mix keeps everyone ahead of target: slack grows.
	for i, s := range pol.Slack() {
		if s <= 0 {
			t.Errorf("core %d slack = %v, want positive", i, s)
		}
	}
}

func TestGammaSensitivity(t *testing.T) {
	// A tighter bound must not save more energy than a looser one.
	nonMem := calibrate(t, "MID1")
	cfg1 := config.Default()
	cfg1.Policy.Gamma = 0.01
	tight := NewPolicy(&cfg1, Options{NonMemPower: nonMem})
	cfg5 := config.Default()
	cfg5.Policy.Gamma = 0.10
	loose := NewPolicy(&cfg5, Options{NonMemPower: nonMem})

	rTight := runMix(t, "MID1", tight, 30*config.Millisecond, nonMem)
	rLoose := runMix(t, "MID1", loose, 30*config.Millisecond, nonMem)
	if rTight.SystemEnergy() < rLoose.SystemEnergy()*0.999 {
		t.Errorf("1%% bound used less energy (%.3f J) than 10%% bound (%.3f J)",
			rTight.SystemEnergy(), rLoose.SystemEnergy())
	}
	if tight.Gamma() != 0.01 || loose.Gamma() != 0.10 {
		t.Error("gamma plumbing broken")
	}
}

func TestFreqChoicesTracked(t *testing.T) {
	nonMem := calibrate(t, "ILP2")
	pol := newPolicy(nonMem)
	runMix(t, "ILP2", pol, 15*config.Millisecond, nonMem)
	total := 0
	for _, n := range pol.FreqChoices() {
		total += n
	}
	if total != pol.Decisions() {
		t.Errorf("choice histogram sums to %d, decisions %d", total, pol.Decisions())
	}
}
