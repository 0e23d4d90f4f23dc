package core

import (
	"testing"

	"memscale/internal/config"
	"memscale/internal/memctrl"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

func TestChannelModelSeparatesChannels(t *testing.T) {
	cfg := config.Default()
	m := NewChannelPerfModel(&cfg)
	p := skewedProfileFull(&cfg)
	m.Fit(p)

	// Channel 0's queueing factors dominate channel 1's.
	if m.XiBank[0] <= m.XiBank[1] {
		t.Errorf("xi_bank: ch0 %.2f <= ch1 %.2f", m.XiBank[0], m.XiBank[1])
	}
	// Core 0's misses are on channel 0 only.
	if m.AlphaCh[0][0] <= 0 || m.AlphaCh[0][1] != 0 {
		t.Errorf("core 0 alpha: %v", m.AlphaCh[0])
	}

	// Lowering the idle channel 1 barely changes core 0's CPI;
	// lowering channel 0 changes it a lot.
	nominal := uniformVec(cfg.Channels, config.MaxBusFreq)
	slow1 := uniformVec(cfg.Channels, config.MaxBusFreq)
	slow1[1] = config.Freq200
	slow0 := uniformVec(cfg.Channels, config.MaxBusFreq)
	slow0[0] = config.Freq200

	base := m.CPI(0, nominal)
	if d := m.CPI(0, slow1) - base; d != 0 {
		t.Errorf("idle-channel slowdown changed core 0 CPI by %g", d)
	}
	if d := m.CPI(0, slow0) - base; d <= 0 {
		t.Errorf("loaded-channel slowdown did not raise core 0 CPI (%g)", d)
	}
}

// skewedProfileFull builds the complete profile including interval
// slices.
func skewedProfileFull(cfg *config.Config) sim.Profile {
	c := memctrl.Counters{TLM: make([]uint64, cfg.Cores)}
	c.PerChannel = make([]memctrl.ChannelCounters, cfg.Channels)
	for ch := range c.PerChannel {
		c.PerChannel[ch].TLM = make([]uint64, cfg.Cores)
	}
	c.PerChannel[0].BTC = 1000
	c.PerChannel[0].BTO = 2500
	c.PerChannel[0].CTC = 1000
	c.PerChannel[0].CTO = 1800
	c.PerChannel[0].CBMC = 2000
	c.PerChannel[0].TLM[0] = 1500
	c.PerChannel[1].BTC = 50
	c.PerChannel[1].CTC = 50
	c.PerChannel[1].CBMC = 50
	c.PerChannel[1].TLM[1] = 50
	c.TLM[0] = 1500
	c.TLM[1] = 50

	instr := make([]float64, cfg.Cores)
	for i := range instr {
		instr[i] = 100_000
	}
	instr[0] = 80_000

	p := sim.Profile{
		End:      300 * config.Microsecond,
		BusFreq:  config.MaxBusFreq,
		Counters: c,
		Instr:    instr,
	}
	return p
}

func uniformVec(n int, f config.FreqMHz) []config.FreqMHz {
	out := make([]config.FreqMHz, n)
	for i := range out {
		out[i] = f
	}
	return out
}

func TestPerChannelPolicyOnPartitionedMix(t *testing.T) {
	cfg := config.Default()
	mix := workload.Mix{Name: "HETT", Class: workload.ClassMID,
		Apps: [4]string{"swim", "eon", "art", "crafty"}}

	run := func(gov sim.Governor, nonMem float64) sim.Result {
		streams, err := mix.PartitionedStreams(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg, streams, sim.Options{Governor: gov, NonMemPower: nonMem})
		if err != nil {
			t.Fatal(err)
		}
		return s.RunFor(20 * config.Millisecond)
	}
	base := run(nil, 0)
	nonMem := 1.5 * base.DIMMAvgWatts

	pcCfg := config.Default()
	pol := NewPerChannelPolicy(&pcCfg, Options{NonMemPower: nonMem})
	res := run(pol, nonMem)

	if pol.Decisions() == 0 {
		t.Fatal("per-channel policy made no decisions")
	}
	save := 1 - res.Memory.Memory()/base.Memory.Memory()
	if save < 0.10 {
		t.Errorf("partitioned memory savings = %.1f%%, want > 10%%", save*100)
	}
	// Bound holds per core.
	for i := range res.CPI {
		inc := res.CPI[i]/base.CPI[i] - 1
		if inc > pol.Gamma()+0.02 {
			t.Errorf("core %d CPI increase %.1f%% exceeds bound", i, inc*100)
		}
	}
	if pol.Gamma() != 0.10 {
		t.Errorf("gamma = %g", pol.Gamma())
	}
	if pol.Name() != "memscale-perchannel" {
		t.Errorf("name = %q", pol.Name())
	}
	if len(pol.Slack()) != pcCfg.Cores {
		t.Error("slack vector malformed")
	}
}

func TestPartitionedStreamsConfineChannels(t *testing.T) {
	cfg := config.Default()
	mix := workload.Mix{Name: "HETT2", Class: workload.ClassMID,
		Apps: [4]string{"swim", "eon", "art", "crafty"}}
	streams, err := mix.PartitionedStreams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for core, s := range streams {
		want := core % len(mix.Apps) % cfg.Channels
		for i := 0; i < 200; i++ {
			a := s.Next()
			if got := a.Loc.Channel; got != want {
				t.Fatalf("core %d access on channel %d, want %d", core, got, want)
			}
			if a.Writeback {
				if got := a.WBLoc.Channel; got != want {
					t.Fatalf("core %d writeback on channel %d, want %d", core, got, want)
				}
			}
		}
	}
}

func TestLadderIndex(t *testing.T) {
	for i, f := range config.BusFrequencies {
		if got := ladderIndex(f); got != i {
			t.Errorf("ladderIndex(%v) = %d, want %d", f, got, i)
		}
	}
	if ladderIndex(999) != 0 {
		t.Error("unknown frequency should map to index 0")
	}
}
