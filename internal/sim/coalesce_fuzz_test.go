package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/memctrl"
	"memscale/internal/telemetry"
	"memscale/internal/trace"
)

// ladderGovernor walks the bus-frequency ladder one step per epoch,
// wrapping around. It is deliberately trivial — the equivalence checks
// need frequency transitions (each one relocks the DLL and reshapes
// idle intervals under the coalescing horizon), not a smart policy.
type ladderGovernor struct{ i int }

func (g *ladderGovernor) Name() string { return "ladder" }

func (g *ladderGovernor) ProfileComplete(Profile) config.FreqMHz {
	f := config.BusFrequencies[g.i%len(config.BusFrequencies)]
	g.i++
	return f
}

func (g *ladderGovernor) EpochEnd(Profile) {}

// randomInterleaving draws a per-core profile that alternates bursty
// traffic with near-idle stretches — the adversarial input for idle
// coalescing, since every burst/idle boundary forces deferred
// precharges, powerdowns, and refreshes to settle retroactively.
func randomInterleaving(rng *rand.Rand, core int) trace.Profile {
	n := 3 + rng.Intn(4)
	phases := make([]trace.Phase, n)
	for i := range phases {
		if i%2 == 0 {
			// Bursty: heavy miss traffic, mixed locality.
			mpki := 15 + 45*rng.Float64()
			phases[i] = trace.Phase{
				Instructions: 20_000 + uint64(rng.Intn(60_000)),
				BaseCPI:      0.8 + 0.7*rng.Float64(),
				MPKI:         mpki,
				WPKI:         mpki * (0.2 + 0.4*rng.Float64()),
				RowLocality:  0.3 + 0.6*rng.Float64(),
			}
		} else {
			// Near-idle: long compute stretches with rare misses, so
			// ranks go quiet and the coalesced paths own the timeline.
			mpki := 0.6 * rng.Float64()
			phases[i] = trace.Phase{
				Instructions: 50_000 + uint64(rng.Intn(150_000)),
				BaseCPI:      0.5 + 0.5*rng.Float64(),
				MPKI:         mpki,
				WPKI:         mpki * rng.Float64(),
				RowLocality:  rng.Float64(),
			}
		}
	}
	return trace.Profile{Name: fmt.Sprintf("rand-core%d", core), Phases: phases}
}

// buildStreams materializes fresh streams for one run. Streams are
// stateful (they advance as the simulation consumes them), so every
// run under comparison must rebuild from the same profiles and seeds.
func buildStreams(t *testing.T, cfg *config.Config, profiles []trace.Profile, seed uint64) []*trace.Stream {
	t.Helper()
	mapper := config.NewAddressMapper(cfg)
	streams := make([]*trace.Stream, len(profiles))
	for i, p := range profiles {
		s, err := trace.NewStream(p, mapper, seed+uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	return streams
}

// checkCoalescedPaths is the conservation property the coalescing fast
// paths are built on. It runs the workload three ways: on the coalesced
// paths, on the pure event-driven path (Options.DisableCoalescing), and
// with a telemetry recorder attached, which keeps the controller off its
// deferred-precharge paths and so is a third witness. All three must
// agree bit for bit in every Result field but the fired-event count, and
// in every MC counter: each request saw the same bank state, queue depth
// and row-buffer outcome. The recorder's per-epoch residency columns
// must tile the run total exactly.
func checkCoalescedPaths(t *testing.T, cfg config.Config, profiles []trace.Profile, seed uint64) {
	t.Helper()
	type outcome struct {
		Res      Result
		Counters memctrl.Counters
	}
	run := func(opts Options) outcome {
		opts.Governor = &ladderGovernor{}
		s, err := New(cfg, buildStreams(t, &cfg, profiles, seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := s.RunFor(2 * cfg.Policy.EpochLength)
		return outcome{res, s.MC.Counters()}
	}

	coalesced := run(Options{})
	eventDriven := run(Options{DisableCoalescing: true})
	rec := telemetry.NewRecorder(telemetry.Options{})
	observed := run(Options{Telemetry: rec})

	bitdiff.Same(t, "event-driven", coalesced, eventDriven, "Res.Events")
	bitdiff.Same(t, "telemetry-observed", coalesced, observed, "Res.Events")
	if coalesced.Res.Events > eventDriven.Res.Events {
		t.Errorf("coalesced run fired %d events, more than event-driven %d",
			coalesced.Res.Events, eventDriven.Res.Events)
	}

	// The epochs tile the run: their residency columns sum to the run
	// total exactly, which is duration x ranks.
	var epochSum dram.Account
	for _, ep := range rec.Epochs() {
		epochSum.Add(ep.Residency)
	}
	bitdiff.Same(t, "epoch-sum residency", observed.Res.Residency, epochSum)
	bitdiff.Same(t, "recorder residency", observed.Res.Residency, rec.Residency())
	if want := observed.Res.Duration * config.Time(cfg.Channels*cfg.RanksPerChannel()); epochSum.Total() != want {
		t.Errorf("epoch residency total %v != duration x ranks %v", epochSum.Total(), want)
	}
}

// TestCoalescingConservationProperty checks the conservation property
// on random idle/traffic interleavings: four cores at the paper's epoch
// length, each case on a different powerdown mode.
func TestCoalescingConservationProperty(t *testing.T) {
	for c := 0; c < 3; c++ {
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0xC0A1E5CE + int64(c)))
			cfg := config.Default()
			cfg.Cores = 4
			cfg.Powerdown = []config.PowerdownMode{
				config.PowerdownNone, config.PowerdownFast, config.PowerdownSlow,
			}[c]
			profiles := make([]trace.Profile, cfg.Cores)
			for i := range profiles {
				profiles[i] = randomInterleaving(rng, i)
			}
			checkCoalescedPaths(t, cfg, profiles, rng.Uint64())
		})
	}
}

// FuzzCoalescedPathEquivalence checks the conservation property on
// fuzzed inputs. The bytes steer a three-phase workload (miss rates,
// locality, phase lengths) and the powerdown mode; the trace
// generator's own validation rejects out-of-range rates, so the clamps
// below only keep the inputs in interesting territory.
func FuzzCoalescedPathEquivalence(f *testing.F) {
	f.Add(uint64(1), 30.0, 0.2, 8.0, 0.7, uint8(0))
	f.Add(uint64(42), 55.0, 0.0, 20.0, 0.2, uint8(1))
	f.Add(uint64(7), 5.0, 4.9, 0.1, 0.95, uint8(2))

	f.Fuzz(func(t *testing.T, seed uint64, burstMPKI, idleMPKI, wbFrac, rowLoc float64,
		pdMode uint8) {
		t.Parallel() // seed entries run side by side; fuzzing ignores it

		clamp := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) || v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		burstMPKI = clamp(burstMPKI, 1, 80)
		idleMPKI = clamp(idleMPKI, 0.01, 5)
		rowLoc = clamp(rowLoc, 0, 0.99) // RowLocality lives in [0,1)
		wbFrac = clamp(wbFrac, 0, 1)

		cfg := config.Default()
		cfg.Cores = 2
		cfg.Policy.EpochLength = 2 * config.Millisecond
		cfg.Powerdown = []config.PowerdownMode{
			config.PowerdownNone, config.PowerdownFast, config.PowerdownSlow,
		}[int(pdMode)%3]
		profile := trace.Profile{Name: "fuzz", Phases: []trace.Phase{
			{Instructions: 10_000 + seed%50_000, BaseCPI: 1, MPKI: burstMPKI,
				WPKI: burstMPKI * wbFrac, RowLocality: rowLoc},
			{Instructions: 40_000, BaseCPI: 0.7, MPKI: idleMPKI,
				WPKI: idleMPKI * wbFrac, RowLocality: rowLoc},
			{BaseCPI: 1, MPKI: burstMPKI / 2, WPKI: burstMPKI / 2 * wbFrac,
				RowLocality: 0.99 - rowLoc},
		}}
		profiles := make([]trace.Profile, cfg.Cores)
		for i := range profiles {
			profiles[i] = profile
		}
		checkCoalescedPaths(t, cfg, profiles, seed)
	})
}
