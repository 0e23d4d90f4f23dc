package core

import (
	"testing"
	"testing/quick"

	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/memctrl"
	"memscale/internal/power"
	"memscale/internal/sim"
)

// mkProfile builds a synthetic profiling window with uniform per-core
// miss rates and an idle-ish power interval, suitable for unit tests
// of the decision logic.
func mkProfile(cfg *config.Config, mpki float64, xiBank, xiBus float64) sim.Profile {
	const instrPerCore = 1_000_000
	c := memctrl.Counters{TLM: make([]uint64, cfg.Cores)}
	misses := uint64(mpki * instrPerCore / 1000)
	var totalMisses uint64
	for i := range c.TLM {
		c.TLM[i] = misses
		totalMisses += misses
	}
	c.CBMC = totalMisses
	c.BTC = totalMisses
	c.BTO = uint64(float64(totalMisses) * (xiBank - 1))
	c.CTC = totalMisses
	c.CTO = uint64(float64(totalMisses) * (xiBus - 1))

	instr := make([]float64, cfg.Cores)
	for i := range instr {
		instr[i] = instrPerCore
	}

	elapsed := 300 * config.Microsecond
	interval := power.Interval{Duration: elapsed, BusFreq: config.MaxBusFreq,
		Channels: make([]power.ChannelSlice, cfg.Channels)}
	interval.Channels[0].DRAM = idleAccount(cfg, elapsed)

	return sim.Profile{
		End:      elapsed,
		Counters: c,
		Instr:    instr,
		Interval: interval,
	}
}

func idleAccount(cfg *config.Config, d config.Time) (a dram.Account) {
	a.PrechargeStandby = config.Time(cfg.TotalRanks()) * d
	return a
}

func TestPolicyPrefersMinFreqWhenIdle(t *testing.T) {
	cfg := config.Default()
	pol := NewPolicy(&cfg, Options{NonMemPower: 45})
	p := mkProfile(&cfg, 0.05, 1, 1) // nearly no misses
	got := pol.ProfileComplete(p)
	if got != config.MinBusFreq {
		t.Errorf("idle profile chose %v, want %v", got, config.MinBusFreq)
	}
}

func TestPolicyStaysFastUnderLoad(t *testing.T) {
	cfg := config.Default()
	pol := NewPolicy(&cfg, Options{NonMemPower: 45})
	p := mkProfile(&cfg, 25, 3.0, 2.5) // very memory bound with queueing
	got := pol.ProfileComplete(p)
	if got < config.Freq533 {
		t.Errorf("memory-bound profile chose %v, want >= 533 MHz", got)
	}
}

func TestPolicyAlwaysReturnsLadderFrequency(t *testing.T) {
	cfg := config.Default()
	f := func(mpkiSeed, xiSeed uint8) bool {
		pol := NewPolicy(&cfg, Options{NonMemPower: 45})
		mpki := 0.05 + float64(mpkiSeed)/8 // 0.05 .. ~32
		xi := 1 + float64(xiSeed%40)/10    // 1 .. 4.9
		p := mkProfile(&cfg, mpki, xi, xi)
		got := pol.ProfileComplete(p)
		return config.ValidBusFrequency(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPolicyMonotoneInMissRate(t *testing.T) {
	// Higher miss rate can only keep the frequency equal or higher.
	cfg := config.Default()
	prev := config.FreqMHz(0)
	for _, mpki := range []float64{0.05, 0.5, 2, 8, 20, 40} {
		pol := NewPolicy(&cfg, Options{NonMemPower: 45})
		got := pol.ProfileComplete(mkProfile(&cfg, mpki, 1.5, 1.3))
		if got < prev {
			t.Errorf("frequency fell from %v to %v as MPKI rose to %g", prev, got, mpki)
		}
		prev = got
	}
}

func TestNegativeSlackForcesRecovery(t *testing.T) {
	cfg := config.Default()
	pol := NewPolicy(&cfg, Options{NonMemPower: 45})
	// Put every core deep in debt.
	for i := range pol.slack {
		pol.slack[i] = -50 * config.Millisecond
	}
	p := mkProfile(&cfg, 2.0, 1.5, 1.3)
	got := pol.ProfileComplete(p)
	if got != config.MaxBusFreq {
		t.Errorf("with negative slack the policy chose %v, want max frequency", got)
	}
}

func TestAccumulatedSlackAllowsDeeperScaling(t *testing.T) {
	cfg := config.Default()
	rich := NewPolicy(&cfg, Options{NonMemPower: 45})
	for i := range rich.slack {
		rich.slack[i] = 50 * config.Millisecond
	}
	poor := NewPolicy(&cfg, Options{NonMemPower: 45})

	p := mkProfile(&cfg, 12, 2.0, 1.6)
	fRich := rich.ProfileComplete(p)
	fPoor := poor.ProfileComplete(p)
	if fRich > fPoor {
		t.Errorf("slack-rich policy chose %v, faster than slack-poor %v", fRich, fPoor)
	}
}

func TestEpochEndSlackSign(t *testing.T) {
	cfg := config.Default()
	pol := NewPolicy(&cfg, Options{NonMemPower: 45})
	// An epoch run at max frequency with gamma headroom accrues
	// positive slack: the work's max-frequency time estimate times
	// 1+gamma exceeds the elapsed time when CPI matched the model.
	p := mkProfile(&cfg, 2.0, 1.5, 1.3)
	p.End = cfg.Policy.EpochLength
	// Scale instruction counts so measured CPI is plausible (~1).
	cycles := cfg.TimeToCPUCycles(p.End - p.Start)
	for i := range p.Instr {
		p.Instr[i] = cycles / 1.2
	}
	pol.EpochEnd(p)
	for i, s := range pol.Slack() {
		if s == 0 {
			t.Errorf("core %d slack unchanged after epoch end", i)
		}
	}
}
