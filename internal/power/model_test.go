package power

import (
	"math"
	"testing"
	"testing/quick"

	"memscale/internal/config"
	"memscale/internal/dram"
)

func newModel() (*Model, config.Config) {
	c := config.Default()
	return NewModel(&c), c
}

// idleInterval returns an interval with all ranks in precharge standby
// for 1 second at frequency f.
func idleInterval(c *config.Config, f config.FreqMHz) Interval {
	iv := Interval{Duration: config.Second, BusFreq: f, Channels: make([]ChannelSlice, c.Channels)}
	iv.Channels[0].DRAM.PrechargeStandby = config.Time(c.TotalRanks()) * config.Second
	return iv
}

func TestIdleBackgroundPower(t *testing.T) {
	m, c := newModel()
	b := m.Energy(idleInterval(&c, config.Freq800))
	// 16 ranks x 9 chips x 70 mA x 1.575 V = 15.88 W for 1 s.
	want := 16 * 9 * 0.070 * 1.575
	if math.Abs(b.Background-want) > 0.01 {
		t.Errorf("background = %.3f J, want %.3f", b.Background, want)
	}
	if b.ActPre != 0 || b.ReadWrite != 0 || b.Refresh != 0 {
		t.Error("idle interval must have no dynamic energy")
	}
}

func TestBackgroundScalesLinearlyWithFrequency(t *testing.T) {
	m, c := newModel()
	b800 := m.Energy(idleInterval(&c, config.Freq800))
	b400 := m.Energy(idleInterval(&c, config.Freq400))
	if math.Abs(b400.Background/b800.Background-0.5) > 0.01 {
		t.Errorf("background at 400 MHz = %.2fx of 800 MHz, want 0.5x",
			b400.Background/b800.Background)
	}
	// PLL/Reg also scale linearly.
	if math.Abs(b400.PLLReg/b800.PLLReg-0.5) > 0.01 {
		t.Errorf("PLL/Reg at 400 MHz = %.2fx, want 0.5x", b400.PLLReg/b800.PLLReg)
	}
}

func TestBackgroundFreqScalingKnob(t *testing.T) {
	c := config.Default()
	c.BackgroundFreqScaling = 0 // fully frequency-independent
	m := NewModel(&c)
	b800 := m.Energy(idleInterval(&c, config.Freq800))
	b200 := m.Energy(idleInterval(&c, config.Freq200))
	if b800.Background != b200.Background {
		t.Error("with scaling 0, background must be frequency independent")
	}
}

func TestPowerdownStatesCheaper(t *testing.T) {
	m, c := newModel()
	mk := func(set func(*dram.Account, config.Time)) float64 {
		iv := Interval{Duration: config.Second, BusFreq: config.Freq800, Channels: make([]ChannelSlice, c.Channels)}
		set(&iv.Channels[0].DRAM, config.Time(c.TotalRanks())*config.Second)
		return m.Energy(iv).Background
	}
	standby := mk(func(a *dram.Account, d config.Time) { a.PrechargeStandby = d })
	fast := mk(func(a *dram.Account, d config.Time) { a.PrechargePD = d })
	slow := mk(func(a *dram.Account, d config.Time) { a.PrechargePDSlow = d })
	// Table 2 gives one precharge-powerdown current, so both PD
	// states draw the same power; both must be cheaper than standby.
	if !(slow <= fast && fast < standby) {
		t.Errorf("background ordering wrong: slow %.2f, fast %.2f, standby %.2f",
			slow, fast, standby)
	}
}

func TestActivationEnergy(t *testing.T) {
	m, c := newModel()
	iv := idleInterval(&c, config.Freq800)
	iv.Channels[0].DRAM.Activations = 1
	b := m.Energy(iv)
	// 9 chips x 120 mA x 1.575 V x 50 ns = 85.05 nJ.
	want := 9 * 0.120 * 1.575 * 50e-9
	if math.Abs(b.ActPre-want)/want > 0.01 {
		t.Errorf("activation energy = %.3g J, want %.3g", b.ActPre, want)
	}
	// Frequency independent.
	iv2 := idleInterval(&c, config.Freq200)
	iv2.Channels[0].DRAM.Activations = 1
	if got := m.Energy(iv2).ActPre; math.Abs(got-want)/want > 0.01 {
		t.Errorf("activation energy at 200 MHz = %.3g, want %.3g", got, want)
	}
}

func TestReadWriteEnergyGrowsAtLowFrequency(t *testing.T) {
	m, c := newModel()
	// Same number of bursts at two frequencies: burst *time* doubles
	// at half frequency, so read/write energy doubles (Section 2.2).
	mk := func(f config.FreqMHz) float64 {
		iv := idleInterval(&c, f)
		iv.Channels[0].DRAM.ReadBurst = 1000 * c.Timing.BurstTime(f)
		return m.Energy(iv).ReadWrite
	}
	e800, e400 := mk(config.Freq800), mk(config.Freq400)
	if math.Abs(e400/e800-2.0) > 0.01 {
		t.Errorf("read energy ratio 400/800 = %.2f, want 2.0", e400/e800)
	}
}

func TestRefreshEnergy(t *testing.T) {
	m, c := newModel()
	iv := idleInterval(&c, config.Freq800)
	iv.Channels[0].DRAM.Refreshing = config.Millisecond
	iv.Channels[0].DRAM.Refreshes = 6400
	b := m.Energy(iv)
	want := 0.001 * 9 * 0.240 * 1.575 // 1 ms at IDD5
	if math.Abs(b.Refresh-want)/want > 0.01 {
		t.Errorf("refresh energy = %.4g, want %.4g", b.Refresh, want)
	}
}

func TestMCPowerRange(t *testing.T) {
	m, _ := newModel()
	if got := m.MCPower(config.Freq800, 1.0); math.Abs(got-15.0) > 1e-9 {
		t.Errorf("MC peak at nominal = %.2f W, want 15", got)
	}
	if got := m.MCPower(config.Freq800, 0.0); math.Abs(got-7.5) > 1e-9 {
		t.Errorf("MC idle at nominal = %.2f W, want 7.5", got)
	}
	// The paper: MC power drops roughly cubically with frequency.
	// V^2*f at the bottom of the ladder: (0.65^2*400)/(1.2^2*1600) of
	// nominal, i.e. ~7.3% -> 0.55 W (a >13x reduction, the paper's
	// "approximately cubic" benefit).
	low := m.MCPower(config.Freq200, 0.0)
	if math.Abs(low-0.55) > 0.01 {
		t.Errorf("MC idle at 200 MHz = %.3f W, want ~0.55 W", low)
	}
	if v := m.MCVoltage(config.Freq200); v != 0.65 {
		t.Errorf("MC voltage at 200 MHz = %.3f, want 0.65", v)
	}
	if v := m.MCVoltage(config.Freq800); v != 1.20 {
		t.Errorf("MC voltage at 800 MHz = %.3f, want 1.2", v)
	}
	if s := m.MCVFScale(config.Freq800); math.Abs(s-1) > 1e-12 {
		t.Errorf("MCVFScale at nominal = %g, want 1", s)
	}
}

func TestMCVFScaleMonotone(t *testing.T) {
	m, _ := newModel()
	prev := math.Inf(1)
	for _, f := range config.BusFrequencies {
		s := m.MCVFScale(f)
		if s >= prev {
			t.Errorf("MCVFScale not strictly decreasing at %v", f)
		}
		prev = s
	}
}

func TestTerminationEnergy(t *testing.T) {
	m, c := newModel()
	iv := idleInterval(&c, config.Freq800)
	iv.Channels[0].DRAM.TermBurst = config.Second
	b := m.Energy(iv)
	if math.Abs(b.Termination-c.Power.TerminationPerRankW) > 1e-9 {
		t.Errorf("termination = %.3f J, want %.3f", b.Termination, c.Power.TerminationPerRankW)
	}
}

func TestRegisterUtilization(t *testing.T) {
	m, c := newModel()
	idle := idleInterval(&c, config.Freq800)
	busy := idleInterval(&c, config.Freq800)
	for i := range busy.Channels {
		busy.Channels[i].Busy = config.Second // 100% utilization
	}
	eIdle, eBusy := m.Energy(idle).PLLReg, m.Energy(busy).PLLReg
	// 8 DIMMs: idle (0.25+0.5) W each vs busy (0.5+0.5) W each.
	if math.Abs(eIdle-8*0.75) > 1e-9 {
		t.Errorf("idle PLL/Reg = %.3f J, want 6.0", eIdle)
	}
	if math.Abs(eBusy-8*1.0) > 1e-9 {
		t.Errorf("busy PLL/Reg = %.3f J, want 8.0", eBusy)
	}
}

func TestRestOfSystemPower(t *testing.T) {
	m, _ := newModel()
	// 40% memory fraction -> rest of system is 1.5x the DIMM average.
	if got := m.RestOfSystemPower(30); math.Abs(got-45) > 1e-9 {
		t.Errorf("RestOfSystemPower(30) = %.2f, want 45", got)
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{Background: 1, ActPre: 2, ReadWrite: 3, Termination: 4, Refresh: 5, PLLReg: 6, MC: 7}
	if b.DRAM() != 15 {
		t.Errorf("DRAM() = %g", b.DRAM())
	}
	if b.Memory() != 28 {
		t.Errorf("Memory() = %g", b.Memory())
	}
	c := b
	c.Add(b)
	if c.Memory() != 56 {
		t.Errorf("Add: Memory() = %g", c.Memory())
	}
	if s := b.Scale(2); s.Memory() != 56 {
		t.Errorf("Scale: Memory() = %g", s.Memory())
	}
}

// TestEnergyAdditivity: splitting an interval into two pieces yields
// the same total energy as accounting it at once (the property the
// epoch-boundary flushes rely on).
func TestEnergyAdditivity(t *testing.T) {
	m, c := newModel()
	f := func(split uint8, acts uint16, burstMs uint8) bool {
		frac := float64(split%99+1) / 100
		whole := idleInterval(&c, config.Freq533)
		whole.Channels[0].DRAM.Activations = uint64(acts)
		whole.Channels[0].DRAM.ReadBurst = config.Time(burstMs) * config.Millisecond
		for i := range whole.Channels {
			whole.Channels[i].Busy = config.Time(burstMs) * config.Millisecond / 4
		}

		part := func(k float64) Interval {
			iv := whole
			iv.Duration = config.Time(float64(whole.Duration) * k)
			iv.Channels = make([]ChannelSlice, len(whole.Channels))
			copy(iv.Channels, whole.Channels)
			d0 := &iv.Channels[0].DRAM
			d0.PrechargeStandby = config.Time(float64(whole.Channels[0].DRAM.PrechargeStandby) * k)
			d0.Activations = uint64(float64(acts) * k)
			d0.ReadBurst = config.Time(float64(whole.Channels[0].DRAM.ReadBurst) * k)
			for i := range iv.Channels {
				iv.Channels[i].Busy = config.Time(float64(whole.Channels[i].Busy) * k)
			}
			return iv
		}
		a, b2 := part(frac), part(1-frac)
		// Fix rounding of activation splits.
		b2.Channels[0].DRAM.Activations = uint64(acts) - a.Channels[0].DRAM.Activations

		sum := m.Energy(a)
		sum.Add(m.Energy(b2))
		one := m.Energy(whole)
		// Utilization is a ratio, so equal-rate splits keep it equal;
		// energies must agree to floating-point tolerance.
		return math.Abs(sum.Memory()-one.Memory()) < 1e-6*math.Max(1, one.Memory())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeter(t *testing.T) {
	m, c := newModel()
	mt := NewMeter(m)
	iv := idleInterval(&c, config.Freq800)
	b := mt.Record(iv)
	if b.Memory() <= 0 {
		t.Fatal("recorded interval has no energy")
	}
	mt.Record(iv)
	if mt.Intervals() != 2 {
		t.Errorf("Intervals = %d", mt.Intervals())
	}
	if mt.Duration() != 2*config.Second {
		t.Errorf("Duration = %v", mt.Duration())
	}
	if math.Abs(mt.Total().Memory()-2*b.Memory()) > 1e-9 {
		t.Error("total is not the sum of intervals")
	}
	if mt.AveragePower() <= 0 || mt.AverageDIMMPower() <= 0 {
		t.Error("average powers must be positive")
	}
	if mt.AverageDIMMPower() >= mt.AveragePower() {
		t.Error("DIMM power must exclude the MC")
	}
}

// TestFigure2Shape reproduces the qualitative Figure 2 observations on
// hand-built intervals: for an ILP-like (idle) interval background
// dominates DRAM energy, and MC plus PLL/Reg are a substantial share
// of the memory subsystem.
func TestFigure2Shape(t *testing.T) {
	m, c := newModel()

	ilp := idleInterval(&c, config.Freq800)
	b := m.Energy(ilp)
	if b.Background < 0.8*b.DRAM() {
		t.Errorf("ILP-like: background %.1f%% of DRAM energy, want > 80%%",
			100*b.Background/b.DRAM())
	}
	if share := (b.MC + b.PLLReg) / b.Memory(); share < 0.30 {
		t.Errorf("MC+PLL/Reg share = %.1f%%, want > 30%%", share*100)
	}

	// MEM-like: heavy activation and burst traffic.
	mem := idleInterval(&c, config.Freq800)
	d := &mem.Channels[0].DRAM
	d.ActiveStandby = d.PrechargeStandby / 2
	d.PrechargeStandby /= 2
	d.Activations = 160_000_000 // 160M activations in 1 s
	d.ReadBurst = 800 * config.Millisecond
	d.TermBurst = 2400 * config.Millisecond
	for i := range mem.Channels {
		mem.Channels[i].Busy = 800 * config.Millisecond
	}
	bm := m.Energy(mem)
	if bm.ActPre < 0.15*bm.DRAM() {
		t.Errorf("MEM-like: act/pre share of DRAM = %.1f%%, want > 15%%",
			100*bm.ActPre/bm.DRAM())
	}
	if bm.Memory() <= b.Memory() {
		t.Error("MEM-like interval must consume more than idle")
	}
}
