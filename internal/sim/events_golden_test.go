package sim

import (
	"context"
	"os"
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/workload"
)

// TestGoldenEventCounts pins the exact number of events fired and
// scheduled over two baseline epochs.
//
// Two-tier golden policy: the energy/CPI/residency goldens in the root
// package's golden_test.go are FROZEN — coalescing fast paths must
// reproduce them Float64bits-exactly, because eliding an event only
// reorganizes when the same arithmetic runs. Event counts, by
// contrast, are EXPECTED to change whenever a new fast path elides
// more of the event population; they are pinned here only to catch
// unintentional drift (an optimization accidentally scheduling more,
// or a refactor silently changing the event sequence). After a
// deliberate coalescing change, regenerate these counts with:
//
//	MEMSCALE_UPDATE_GOLDEN=1 go test -run TestGoldenEventCounts ./internal/sim/
//
// which prints the updated table entries instead of failing.
func TestGoldenEventCounts(t *testing.T) {
	update := os.Getenv("MEMSCALE_UPDATE_GOLDEN") != ""
	golden := []struct {
		mix              string
		fired, scheduled uint64
	}{
		{"MEM1", 9103919, 9103953},
		{"ILP1", 810215, 810248},
		{"MID2", 3521634, 3521667},
	}
	for _, g := range golden {
		g := g
		t.Run(g.mix, func(t *testing.T) {
			if !update {
				t.Parallel()
			}
			cfg := config.Default()
			mix, err := workload.ByName(g.mix)
			if err != nil {
				t.Fatal(err)
			}
			streams, err := mix.Streams(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, streams, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res := s.RunFor(2 * cfg.Policy.EpochLength)
			if update {
				t.Logf("golden entry: {%q, %d, %d}", g.mix, s.Q.Fired(), s.Q.ScheduledTotal())
				return
			}
			if s.Q.Fired() != g.fired {
				t.Errorf("fired %d events, want %d", s.Q.Fired(), g.fired)
			}
			if s.Q.ScheduledTotal() != g.scheduled {
				t.Errorf("scheduled %d events, want %d", s.Q.ScheduledTotal(), g.scheduled)
			}
			if res.Events != g.fired {
				t.Errorf("Result.Events = %d, want Fired() = %d", res.Events, g.fired)
			}
		})
	}
}

// TestMaxEpochsCoversTicketRate checks the run-length bound against the
// ticket rate it assumes. MEM1's sixteen cores on one channel keep the
// bus near its peak burst rate, the densest ticket stream a Table 1 mix
// produces; one epoch of it must spend at most half the per-epoch
// ticket budget that MaxEpochs allots, the bound's stated 2x margin.
func TestMaxEpochsCoversTicketRate(t *testing.T) {
	cfg := config.Default()
	if got := MaxEpochs(&cfg); got != 22906 {
		t.Errorf("MaxEpochs on %d channels = %d, want 22906", cfg.Channels, got)
	}
	cfg.Channels = 1
	if got := MaxEpochs(&cfg); got != 91625 {
		t.Errorf("MaxEpochs on 1 channel = %d, want 91625", got)
	}
	mix, err := workload.ByName("MEM1")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := mix.Streams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, streams, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(event.MaxTickets) / uint64(MaxEpochs(&cfg))
	if spent := st.Events.Seq; 2*spent > budget {
		t.Errorf("one saturated epoch spent %d tickets; MaxEpochs allots %d per epoch, want at least twice the spend",
			spent, budget)
	}
}
