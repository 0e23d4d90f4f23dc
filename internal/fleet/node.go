package fleet

import (
	"context"
	"fmt"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/power"
	"memscale/internal/sim"
	"memscale/internal/trace"
	"memscale/internal/workload"
)

// node is one simulated server of the fleet: a managed system stepped
// epoch-by-epoch under the coordinator's cap, paired with its own
// fully-run unmanaged baseline (same arrival schedule), which supplies
// the SER denominator, the CPI-degradation reference, and the
// rest-of-system power calibration.
type node struct {
	group  int // index into the fleet's group list
	global int // index across the fleet (stable identity)

	cfg  config.Config
	mix  workload.Mix
	spec policies.Spec
	seed uint64

	// schedule is the precomputed per-epoch intensity profile both the
	// baseline and the managed run replay.
	schedule []float64

	// Baseline outputs (phase 1). baseAt[e] is the baseline's totals
	// after epoch e, so a run stopped early pairs its managed epochs
	// with the same baseline epochs; baseRes is the pairing in use.
	// Every baseAt entry shares the run's final FreqTime map, which the
	// summary never reads for a baseline.
	baseAt  []sim.Result
	baseRes sim.Result
	nonMem  float64

	// Managed run state (phase 2).
	sys     *sim.System
	streams []*trace.Stream
	epochs  int // managed epochs completed

	// Last-window observations for the coordinator.
	lastRec     sim.EpochRecord
	windowJ     float64 // memory energy over the last fleet window
	windowSec   float64 // simulated seconds of the last fleet window
	windowBgJ   float64 // background energy of the window
	windowRefJ  float64 // refresh energy of the window
	constrained int     // epochs where WantFreq exceeded the applied cap

	res  sim.Result // managed totals (after finalize)
	dead bool
	err  error
}

// streamsFor builds per-core trace streams decorrelated per node: the
// same (mix, app, core) tuple on two different nodes draws different
// address/gap sequences, seeded by the fleet seed and the node's
// stable global index.
func (n *node) streamsFor(cfg *config.Config) ([]*trace.Stream, error) {
	streams, err := n.mix.Streams(cfg, "fleet", int(n.seed), n.global)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d: %w", n.global, err)
	}
	return streams, nil
}

// setIntensity applies the epoch's arrival multiplier to every core
// stream. A multiplier of exactly 1 is skipped so an undriven node is
// bit-identical to a plain run.
func setIntensity(streams []*trace.Stream, m float64) error {
	if m == 1 {
		return nil
	}
	for _, s := range streams {
		if err := s.SetIntensity(m); err != nil {
			return err
		}
	}
	return nil
}

// runBaseline executes the node's unmanaged, uncapped reference run
// over the full horizon, replaying the arrival schedule epoch by
// epoch, and calibrates the rest-of-system power from its average DIMM
// power (the Section 4.1 rule the single-node pipeline uses). It keeps
// the baseline's totals at every epoch boundary; Finalize only reads
// the run's accumulators, so taking them does not disturb the run.
func (n *node) runBaseline(ctx context.Context) error {
	cfg := n.cfg
	streams, err := n.streamsFor(&cfg)
	if err != nil {
		return err
	}
	s, err := sim.New(cfg, streams, sim.Options{})
	if err != nil {
		return fmt.Errorf("fleet: node %d baseline: %w", n.global, err)
	}
	n.baseAt = make([]sim.Result, len(n.schedule))
	for e := range n.schedule {
		if err := setIntensity(streams, n.schedule[e]); err != nil {
			return err
		}
		if _, err := s.StepEpoch(ctx); err != nil {
			return fmt.Errorf("fleet: node %d baseline epoch %d: %w", n.global, e, err)
		}
		n.baseAt[e] = s.Finalize()
	}
	n.baseRes = n.baseAt[len(n.baseAt)-1]
	// Section 4.1 calibration: the rest-of-system power is derived from
	// the unmanaged baseline's average DIMM power.
	n.nonMem = power.NewModel(&cfg).RestOfSystemPower(n.baseRes.DIMMAvgWatts)
	return nil
}

// buildManaged constructs the governed system (phase 2; requires the
// baseline's nonMem calibration).
func (n *node) buildManaged() error {
	cfg := n.cfg
	if n.spec.Configure != nil {
		n.spec.Configure(&cfg)
	}
	streams, err := n.streamsFor(&cfg)
	if err != nil {
		return err
	}
	var gov sim.Governor
	if n.spec.Governor != nil {
		gov = n.spec.Governor(&cfg, n.nonMem)
	}
	s, err := sim.New(cfg, streams, sim.Options{
		Governor:    gov,
		NonMemPower: n.nonMem,
	})
	if err != nil {
		return fmt.Errorf("fleet: node %d: %w", n.global, err)
	}
	n.sys = s
	n.streams = streams
	return nil
}

// stepWindow advances the managed run by k epochs (or to the end of
// the schedule), accumulating the window observations the coordinator
// reads: memory energy, its frequency-independent components, the
// applied and wanted frequencies.
func (n *node) stepWindow(ctx context.Context, k int) error {
	n.windowJ, n.windowSec = 0, 0
	n.windowBgJ, n.windowRefJ = 0, 0
	target := min(n.epochs+k, len(n.schedule))
	for ; n.epochs < target; n.epochs++ {
		e := n.epochs
		if err := setIntensity(n.streams, n.schedule[e]); err != nil {
			return err
		}
		rec, err := n.sys.StepEpoch(ctx)
		if err != nil {
			return fmt.Errorf("fleet: node %d epoch %d: %w", n.global, e, err)
		}
		n.lastRec = rec
		n.windowJ += rec.Energy.Memory()
		n.windowBgJ += rec.Energy.Background
		n.windowRefJ += rec.Energy.Refresh
		n.windowSec += (rec.End - rec.Start).Seconds()
		if rec.WantFreq > rec.Freq {
			n.constrained++
		}
	}
	return nil
}

// observe packages the last window for the cap planner.
func (n *node) observe() nodeObs {
	if n.dead || n.windowSec <= 0 {
		return nodeObs{}
	}
	return nodeObs{
		alive:     true,
		measuredW: n.windowJ / n.windowSec,
		measFreq:  n.lastRec.Freq,
		rho:       rhoOf(n.windowBgJ, n.windowRefJ, n.windowJ),
		want:      n.lastRec.WantFreq,
	}
}

// systemEnergy returns full-system joules for a finished result using
// the node's calibrated rest-of-system power.
func (n *node) systemEnergy(r sim.Result) float64 {
	return r.Memory.Memory() + n.nonMem*r.Duration.Seconds()
}

// cpiIncrease is the node's CPI degradation vs its paired baseline.
func (n *node) cpiIncrease() float64 {
	base := n.baseRes.MeanCPI()
	if base == 0 {
		return 0
	}
	return n.res.MeanCPI()/base - 1
}
