package sim

import (
	"math"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/trace"
	"memscale/internal/workload"
)

// fixedGov always requests one frequency.
type fixedGov struct {
	freq     config.FreqMHz
	profiles int
	epochs   int
	lastProf Profile
	lastEnd  Profile
}

func (g *fixedGov) Name() string { return "fixed" }
func (g *fixedGov) ProfileComplete(p Profile) config.FreqMHz {
	g.profiles++
	g.lastProf = p
	return g.freq
}
func (g *fixedGov) EpochEnd(p Profile) {
	g.epochs++
	g.lastEnd = p
}

func newSystem(t *testing.T, mixName string, opts Options, mutate func(*config.Config)) *System {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	mix, err := workload.ByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, streams, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaselineRunCompletes(t *testing.T) {
	s := newSystem(t, "MID1", Options{}, nil)
	res := s.RunFor(s.Cfg.Policy.EpochLength / 2)
	for i, n := range res.Instructions {
		if n < 500_000 {
			t.Errorf("core %d retired only %.0f instructions", i, n)
		}
	}
	if res.Duration <= 0 || res.Duration%s.Cfg.Policy.EpochLength != 0 {
		t.Errorf("duration %v is not a whole number of epochs", res.Duration)
	}
	if res.Memory.Memory() <= 0 {
		t.Error("no memory energy accounted")
	}
	if res.FreqTime[config.MaxBusFreq] != res.Duration {
		t.Errorf("baseline must spend the whole run at nominal frequency: %v of %v",
			res.FreqTime[config.MaxBusFreq], res.Duration)
	}
	if res.MeanCPI() <= 1.0 {
		t.Errorf("MID mean CPI = %.2f, expected > 1", res.MeanCPI())
	}
}

func TestGovernorDrivesFrequency(t *testing.T) {
	gov := &fixedGov{freq: config.Freq400}
	s := newSystem(t, "ILP2", Options{Governor: gov}, nil)
	res := s.RunFor(20 * config.Millisecond)
	if gov.profiles == 0 || gov.epochs == 0 {
		t.Fatal("governor never invoked")
	}
	if gov.profiles != gov.epochs {
		t.Errorf("profiles %d != epochs %d", gov.profiles, gov.epochs)
	}
	// All time after the first profiling window runs at 400 MHz.
	if res.FreqTime[config.Freq400] <= res.FreqTime[config.MaxBusFreq] {
		t.Errorf("expected mostly 400 MHz: %v vs %v at nominal",
			res.FreqTime[config.Freq400], res.FreqTime[config.MaxBusFreq])
	}
}

func TestProfileContents(t *testing.T) {
	gov := &fixedGov{freq: config.MaxBusFreq}
	s := newSystem(t, "MEM1", Options{Governor: gov}, nil)
	s.RunFor(5 * config.Millisecond)
	p := gov.lastProf
	if p.Elapsed() != s.Cfg.Policy.ProfilingLength {
		t.Errorf("profiling window = %v", p.Elapsed())
	}
	if p.Counters.Reads == 0 || p.Counters.BTC == 0 {
		t.Error("profiling window saw no traffic on a MEM mix")
	}
	if len(p.Instr) != s.Cfg.Cores {
		t.Fatalf("Instr has %d entries", len(p.Instr))
	}
	for i, n := range p.Instr {
		if n <= 0 {
			t.Errorf("core %d retired nothing in the window", i)
		}
	}
	if p.Interval.Duration != p.Elapsed() {
		t.Errorf("interval duration %v != window %v", p.Interval.Duration, p.Elapsed())
	}
	// Epoch-end profile covers the full epoch.
	if gov.lastEnd.Elapsed() != s.Cfg.Policy.EpochLength {
		t.Errorf("epoch window = %v", gov.lastEnd.Elapsed())
	}
	if gov.lastEnd.Counters.Reads < p.Counters.Reads {
		t.Error("epoch counters must include the profiling window")
	}
}

func TestLowFrequencySavesMemoryEnergyOnILP(t *testing.T) {
	// An ILP mix at 200 MHz must consume substantially less memory
	// energy than at 800 MHz, with little CPI change.
	base := newSystem(t, "ILP2", Options{}, nil)
	rBase := base.RunFor(20 * config.Millisecond)

	gov := &fixedGov{freq: config.Freq200}
	slow := newSystem(t, "ILP2", Options{Governor: gov}, nil)
	rSlow := slow.RunFor(20 * config.Millisecond)

	save := 1 - rSlow.Memory.Memory()/rBase.Memory.Memory()
	if save < 0.40 {
		t.Errorf("ILP memory energy savings at 200 MHz = %.1f%%, want > 40%%", save*100)
	}
	cpiInc := rSlow.MeanCPI()/rBase.MeanCPI() - 1
	if cpiInc > 0.02 {
		t.Errorf("ILP CPI increase at 200 MHz = %.2f%%, want < 2%%", cpiInc*100)
	}
}

func TestLowFrequencyHurtsMEM(t *testing.T) {
	base := newSystem(t, "MEM1", Options{}, nil)
	rBase := base.RunFor(10 * config.Millisecond)

	gov := &fixedGov{freq: config.Freq200}
	slow := newSystem(t, "MEM1", Options{Governor: gov}, nil)
	rSlow := slow.RunFor(10 * config.Millisecond)

	cpiInc := rSlow.MeanCPI()/rBase.MeanCPI() - 1
	if cpiInc < 0.15 {
		t.Errorf("MEM CPI increase at 200 MHz = %.1f%%, want > 15%%", cpiInc*100)
	}
}

func TestTimelineRecords(t *testing.T) {
	s := newSystem(t, "MID1", Options{KeepTimeline: true}, nil)
	res := s.RunFor(25 * config.Millisecond)
	if len(res.Epochs) != 5 {
		t.Fatalf("have %d epoch records, want 5", len(res.Epochs))
	}
	for i, ep := range res.Epochs {
		if ep.Index != i {
			t.Errorf("epoch %d has index %d", i, ep.Index)
		}
		if ep.Freq != config.MaxBusFreq {
			t.Errorf("baseline epoch %d at %v", i, ep.Freq)
		}
		if len(ep.CoreCPI) != s.Cfg.Cores || ep.CoreCPI[0] <= 0 {
			t.Errorf("epoch %d core CPI malformed", i)
		}
		for ch, u := range ep.ChannelUtil {
			if u < 0 || u > 1 {
				t.Errorf("epoch %d channel %d utilization %.3f out of range", i, ch, u)
			}
		}
	}
}

func TestNonMemEnergyAccounting(t *testing.T) {
	s := newSystem(t, "ILP2", Options{NonMemPower: 50}, nil)
	res := s.RunFor(5 * config.Millisecond)
	want := 50 * res.Duration.Seconds()
	if math.Abs(res.NonMemEnergy-want) > 1e-9 {
		t.Errorf("NonMemEnergy = %g, want %g", res.NonMemEnergy, want)
	}
	if res.SystemEnergy() <= res.Memory.Memory() {
		t.Error("system energy must include the rest of the system")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Result {
		s := newSystem(t, "MID2", Options{}, nil)
		return s.RunFor(10 * config.Millisecond)
	}
	bitdiff.Same(t, "identical runs", run(), run())
}

func TestNewValidation(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg, nil, Options{}); err == nil {
		t.Error("stream/core mismatch must error")
	}
	bad := cfg
	bad.Channels = 0
	mapper := config.NewAddressMapper(&cfg)
	streams := make([]*trace.Stream, cfg.Cores)
	p, _ := workload.App("gap")
	for i := range streams {
		s, err := trace.NewStream(p, mapper, uint64(i))
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		streams[i] = s
	}
	if _, err := New(bad, streams, Options{}); err == nil {
		t.Error("invalid config must error")
	}
}
