package sim_test

import (
	"context"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

// newGoverned builds a system running the real MemScale governor over
// mixName — the configuration the fleet layer drives.
func newGoverned(t *testing.T, mixName string, opts sim.Options) *sim.System {
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
	opts.Governor = core.NewPolicy(&cfg, core.Options{NonMemPower: 150})
	s, err := sim.New(cfg, streams, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStepEpochMatchesRunFor drives one system epoch-by-epoch and
// another with RunFor over the same horizon; results must be
// bit-identical.
func TestStepEpochMatchesRunFor(t *testing.T) {
	const horizon = 25 * config.Millisecond

	ref := newGoverned(t, "MID2", sim.Options{})
	want := ref.RunFor(horizon)

	s := newGoverned(t, "MID2", sim.Options{})
	ctx := context.Background()
	for {
		rec, err := s.StepEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rec.End >= horizon {
			break
		}
	}
	bitdiff.Same(t, "StepEpoch vs RunFor", want, s.Finalize())
}

// TestFrequencyCapCeilsGovernor runs a memory-bound mix (where
// MemScale wants high frequency) under a cap and checks no epoch body
// ever exceeds it, while WantFreq still reports the uncapped desire
// when the cap binds.
func TestFrequencyCapCeilsGovernor(t *testing.T) {
	s := newGoverned(t, "MEM1", sim.Options{KeepTimeline: true})
	if err := s.SetFrequencyCap(config.Freq533); err != nil {
		t.Fatal(err)
	}
	res := s.RunFor(25 * config.Millisecond)
	if len(res.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	constrained := 0
	for _, ep := range res.Epochs {
		if ep.Freq > config.Freq533 {
			t.Errorf("epoch %d ran at %v above the %v cap", ep.Index, ep.Freq, config.Freq533)
		}
		if ep.WantFreq > ep.Freq {
			constrained++
		}
		if ep.WantFreq < ep.Freq {
			t.Errorf("epoch %d want %v below applied %v", ep.Index, ep.WantFreq, ep.Freq)
		}
	}
	// MEM1 is memory-bound: the cap must bind on at least one epoch for
	// the test to mean anything.
	if constrained == 0 {
		t.Error("cap never bound; WantFreq trace is untested")
	}
}

// TestFrequencyCapValidatesLadder rejects off-ladder caps and lets 0
// clear.
func TestFrequencyCapValidatesLadder(t *testing.T) {
	s := newGoverned(t, "ILP1", sim.Options{})
	if err := s.SetFrequencyCap(123); err == nil {
		t.Error("off-ladder cap accepted")
	}
	if err := s.SetFrequencyCap(config.Freq267); err != nil {
		t.Errorf("ladder cap rejected: %v", err)
	}
	if s.FrequencyCap() != config.Freq267 {
		t.Errorf("cap = %v", s.FrequencyCap())
	}
	if err := s.SetFrequencyCap(0); err != nil {
		t.Errorf("clearing cap failed: %v", err)
	}
	if s.FrequencyCap() != 0 {
		t.Error("cap not cleared")
	}
}

// TestCapZeroIsBitIdentical confirms a cap at nominal frequency leaves
// the simulated event sequence untouched (the golden-preserving
// property).
func TestCapZeroIsBitIdentical(t *testing.T) {
	run := func(cap config.FreqMHz) sim.Result {
		s := newGoverned(t, "MID3", sim.Options{})
		if cap != 0 {
			if err := s.SetFrequencyCap(cap); err != nil {
				t.Fatal(err)
			}
		}
		return s.RunFor(15 * config.Millisecond)
	}
	bitdiff.Same(t, "cap at nominal", run(0), run(config.MaxBusFreq))
}
