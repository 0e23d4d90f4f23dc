package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/faults"
	"memscale/internal/invariant"
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
// rest-of-system power calibration. Under a RecoverySpec the node also
// runs its own self-healing supervisor: periodic snapshots through the
// checkpoint codec, watchdog-bounded window attempts, and
// crash-restart-replay recovery that is invisible to the coordinator.
type node struct {
	group   int // index into the fleet's group list
	inGroup int // index within the group
	global  int // index across the fleet (stable identity)

	cfg       config.Config
	runCfg    config.Config // post-Configure config the managed system runs under
	mix       workload.Mix
	spec      policies.Spec
	faultsCfg *faults.Config
	recovery  *RecoverySpec // effective (defaulted) supervisor spec; nil disables recovery
	seed      uint64

	// schedule is the precomputed per-epoch intensity profile both the
	// baseline and the managed run replay.
	schedule []float64

	// Baseline outputs (phase 1).
	baseRes sim.Result
	nonMem  float64

	// Managed run state (phase 2).
	sys     *sim.System
	streams []*trace.Stream
	epochs  int // managed epochs completed

	// Self-healing plane state.
	chaos          *faults.FleetInjector // fleet-scope disturbance schedule (nil when disabled)
	ckpt           nodeCheckpoint        // most recent periodic snapshot
	capHist        []capChange           // applied cap history, replayed after a restart
	attempt        int                   // chaos schedule ordinal; bumps on every restart
	restarts       int                   // checkpoint restarts performed over the run
	windowRestarts int                   // restarts within the current fleet window
	crashes        int                   // injected crashes plus watchdog timeouts
	corruptCkpts   int                   // snapshots lost to write corruption
	recoveryEpochs int                   // epochs replayed during recovery
	counted        int                   // first epoch not yet counted into constrained
	lost           bool                  // inside a coordinator-visible loss window
	lossWindows    int                   // loss windows entered

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

// capChange records one coordinator cap assignment: the first epoch
// index it governs and the ceiling. The history lets a restarted node
// re-apply the exact cap sequence while replaying epochs the original
// pass already ran under those caps.
type capChange struct {
	from int
	freq config.FreqMHz
}

// streamsFor builds per-core trace streams decorrelated per node: the
// same (mix, app, core) tuple on two different nodes draws different
// address/gap sequences, seeded by the fleet seed and the node's
// stable global index.
func (n *node) streamsFor(cfg *config.Config) ([]*trace.Stream, error) {
	mapper := config.NewAddressMapper(cfg)
	// Seed from the base mix name so a mix and its Partition() variant
	// draw identical traces on every node — placement, not content, is
	// what the variant changes.
	base := strings.TrimSuffix(n.mix.Name, workload.PartitionedSuffix)
	streams := make([]*trace.Stream, cfg.Cores)
	for core := 0; core < cfg.Cores; core++ {
		appIdx := core % len(n.mix.Apps)
		name := n.mix.Apps[appIdx]
		p, err := workload.App(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d: %w", n.global, err)
		}
		var channels []int
		if n.mix.Partitioned {
			channels = []int{appIdx % cfg.Channels}
		}
		s, err := trace.NewStreamOnChannels(p, mapper,
			trace.Seed("fleet", int(n.seed), n.global, base, name, core), channels)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d core %d: %w", n.global, core, err)
		}
		streams[core] = s
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
// power (the Section 4.1 rule the single-node pipeline uses).
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
	for e := 0; e < len(n.schedule); e++ {
		if err := setIntensity(streams, n.schedule[e]); err != nil {
			return err
		}
		if _, err := s.StepEpoch(ctx); err != nil {
			return fmt.Errorf("fleet: node %d baseline epoch %d: %w", n.global, e, err)
		}
	}
	n.baseRes = s.Finalize()
	// Section 4.1 calibration: the rest-of-system power is derived from
	// the unmanaged baseline's average DIMM power.
	n.nonMem = power.NewModel(&cfg).RestOfSystemPower(n.baseRes.DIMMAvgWatts)
	return nil
}

// buildManaged constructs the governed system and the node's chaos
// schedule (phase 2; requires the baseline's nonMem calibration).
func (n *node) buildManaged() error {
	if n.faultsCfg != nil {
		fc := *n.faultsCfg
		// The fleet-scope disturbance schedule uses its own salt domain,
		// decorrelated per node, independent of the hardware-fault seed.
		fc.Seed = trace.Seed("fleet-chaos", int(n.faultsCfg.Seed), n.global)
		chaos, err := faults.NewFleet(fc)
		if err != nil {
			return fmt.Errorf("fleet: node %d: %w", n.global, err)
		}
		n.chaos = chaos
	}
	return n.buildSystem(nil)
}

// buildSystem constructs (or, given a restored snapshot, reconstructs)
// the governed system. The construction path is identical either way —
// same streams, same governor, same hardware-fault schedule — which is
// what makes a restored node replay bit-identically.
func (n *node) buildSystem(st *sim.SystemState) error {
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
	var inj *faults.Injector
	if n.faultsCfg != nil {
		fc := *n.faultsCfg
		// Decorrelate the disturbance schedules across the fleet while
		// keeping each node's reproducible. Always attempt 0: the
		// hardware schedule is a property of the node's run, not of the
		// restart ordinal, so a recovered node replays the same storms
		// and relock failures.
		fc.Seed = trace.Seed("fleet-faults", int(fc.Seed), n.global)
		if inj, err = faults.New(fc, 0); err != nil {
			return fmt.Errorf("fleet: node %d: %w", n.global, err)
		}
	}
	opts := sim.Options{
		Governor:    gov,
		NonMemPower: n.nonMem,
		Faults:      inj,
	}
	var s *sim.System
	if st == nil {
		s, err = sim.New(cfg, streams, opts)
	} else {
		s, err = sim.Restore(cfg, streams, opts, st)
	}
	if err != nil {
		return fmt.Errorf("fleet: node %d: %w", n.global, err)
	}
	n.sys = s
	n.streams = streams
	n.runCfg = cfg
	return nil
}

// applyCap sets the coordinator's new cap and records it for replay.
func (n *node) applyCap(f config.FreqMHz) error {
	if err := n.sys.SetFrequencyCap(f); err != nil {
		return err
	}
	n.capHist = append(n.capHist, capChange{from: n.epochs, freq: f})
	return nil
}

// capAt returns the cap in force for epoch e per the recorded history.
func (n *node) capAt(e int) (config.FreqMHz, bool) {
	var f config.FreqMHz
	found := false
	for _, ch := range n.capHist {
		if ch.from > e {
			break
		}
		f, found = ch.freq, true
	}
	return f, found
}

// stepWindow advances the managed run by k epochs (or to the end of
// the schedule) under the self-healing supervisor: each attempt steps
// toward the window boundary with the current chaos schedule, and an
// injected crash or watchdog timeout restores the last periodic
// snapshot and replays. Because a successful recovery reaches the
// boundary before the coordinator observes the node, the window's
// observations are bit-identical to an undisturbed run. Retries are
// bounded per window; exhaustion loses the node with ErrNodeLost.
func (n *node) stepWindow(ctx context.Context, k int) error {
	windowStart := n.epochs
	target := windowStart + k
	if target > len(n.schedule) {
		target = len(n.schedule)
	}
	n.windowRestarts = 0
	for try := 0; ; try++ {
		err := n.stepAttempt(ctx, windowStart, target)
		if err == nil {
			return nil
		}
		var crash *crashFault
		if !errors.As(err, &crash) {
			return err
		}
		retries := 0
		if n.recovery != nil {
			retries = n.recovery.MaxRetries
		}
		if try >= retries {
			return fmt.Errorf("fleet: node %d: %v; %d restart(s) exhausted: %w",
				n.global, crash, try, ErrNodeLost)
		}
		if d := n.backoff(try); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := n.restart(); err != nil {
			return err
		}
		n.windowRestarts++
	}
}

// backoff is the host-time delay before restart try+1: exponential
// from the spec's base, capped at 256x.
func (n *node) backoff(try int) time.Duration {
	if n.recovery == nil || n.recovery.Backoff <= 0 {
		return 0
	}
	if try > 8 {
		try = 8
	}
	return n.recovery.Backoff << uint(try)
}

// stepAttempt runs one watchdog-bounded attempt at the window. A
// deadline the attempt itself blew (parent still live) converts into a
// crashFault so the supervisor recovers a timed-out node exactly like
// a crashed one.
func (n *node) stepAttempt(ctx context.Context, windowStart, target int) error {
	parent := ctx
	if n.recovery != nil && n.recovery.StepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.recovery.StepTimeout)
		defer cancel()
	}
	err := n.stepTo(ctx, windowStart, target)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		n.crashes++
		return &crashFault{epoch: n.epochs, timeout: true}
	}
	return err
}

// stepTo advances the managed run to the target epoch under the
// current chaos attempt, accumulating the window observations the
// coordinator reads: memory energy, its frequency-independent
// components, the applied and wanted frequencies.
func (n *node) stepTo(ctx context.Context, windowStart, target int) error {
	for n.epochs < target {
		e := n.epochs
		if e == windowStart {
			// Crossing into the current fleet window: reset the
			// observation accumulators. A replay crosses this point again
			// and recomputes the window bit-identically.
			n.windowJ, n.windowSec = 0, 0
			n.windowBgJ, n.windowRefJ = 0, 0
		}
		plan := n.chaos.NodePlan(e, n.attempt)
		if plan.Straggle {
			// Stragglers stall in host time only — simulated results are
			// untouched, but the per-window watchdog sees the delay.
			select {
			case <-time.After(n.chaos.StragglerDelay()):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if plan.Crash {
			n.crashes++
			return &crashFault{epoch: e}
		}
		if f, ok := n.capAt(e); ok {
			// Re-assert the recorded cap for this epoch. On a fresh pass
			// this re-sets the value the coordinator just applied (a
			// no-op); on a replay it re-establishes each cap change at the
			// boundary it originally took effect.
			if err := n.sys.SetFrequencyCap(f); err != nil {
				return err
			}
		}
		if err := setIntensity(n.streams, n.schedule[e]); err != nil {
			return err
		}
		rec, err := n.sys.StepEpoch(ctx)
		if err != nil {
			return fmt.Errorf("fleet: node %d epoch %d: %w", n.global, e, err)
		}
		n.epochs++
		n.lastRec = rec
		n.windowJ += rec.Energy.Memory()
		n.windowBgJ += rec.Energy.Background
		n.windowRefJ += rec.Energy.Refresh
		n.windowSec += (rec.End - rec.Start).Seconds()
		if e >= n.counted {
			// Run-total counters advance only on first execution of an
			// epoch, never on replay.
			if rec.WantFreq > rec.Freq {
				n.constrained++
			}
			n.counted = e + 1
		}
		if n.recovery != nil && n.epochs%n.recovery.CheckpointEvery == 0 {
			if err := n.saveCheckpoint(plan.CorruptCheckpoint); err != nil {
				return err
			}
		}
	}
	return nil
}

// saveCheckpoint snapshots the node through the real checkpoint
// container — the same encode/decode/CRC path the single-run plane
// uses — so a checkpoint-write corruption fault is detected at restore
// time exactly the way a disk-level flip would be.
func (n *node) saveCheckpoint(corrupt bool) error {
	st, err := n.sys.Save()
	if err != nil {
		return fmt.Errorf("fleet: node %d checkpoint: %w", n.global, err)
	}
	ck := &checkpoint.Checkpoint{
		Meta: checkpoint.Meta{
			Mix:    n.mix.Name,
			Policy: n.spec.Name,
			Gamma:  n.runCfg.Policy.Gamma,
			NonMem: n.nonMem,
			Epochs: n.epochs,
		},
		Config: n.runCfg,
		Base:   n.cfg,
		State:  st,
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, ck); err != nil {
		return fmt.Errorf("fleet: node %d checkpoint: %w", n.global, err)
	}
	data := buf.Bytes()
	if corrupt {
		// The write fault flips one payload bit; Decode's CRC catches it
		// at restore time and the supervisor falls back to a full replay.
		data[len(data)-5] ^= 0x10
	}
	n.ckpt = nodeCheckpoint{
		valid: true, epoch: n.epochs, data: data,
		windowJ: n.windowJ, windowSec: n.windowSec,
		windowBgJ: n.windowBgJ, windowRefJ: n.windowRefJ,
		lastRec: n.lastRec,
	}
	return nil
}

// restart recovers the node after a crash or watchdog timeout: restore
// the most recent periodic snapshot (discarding it when its bytes no
// longer decode — the checkpoint-corruption fault), rebuild the system
// identically, and rewind the epoch cursor so stepTo replays to where
// the node died. The restart bumps the chaos attempt, re-rolling the
// disturbance draws so a crash cannot pin the node in a loop.
func (n *node) restart() error {
	n.attempt++
	n.restarts++
	crashedAt := n.epochs

	var st *sim.SystemState
	from := 0
	if n.ckpt.valid {
		ck, err := checkpoint.Decode(bytes.NewReader(n.ckpt.data))
		if err != nil {
			// The snapshot was corrupted at write time: drop it and fall
			// back to a from-scratch replay — just as deterministic, only
			// slower.
			n.corruptCkpts++
			n.ckpt = nodeCheckpoint{}
		} else {
			st = ck.State
			from = n.ckpt.epoch
			if err := invariant.Check("resume_epoch", st.EpochIdx == from,
				"node %d snapshot records %d epochs completed, state cursor is at %d",
				n.global, from, st.EpochIdx); err != nil {
				return err
			}
		}
	}
	if err := n.buildSystem(st); err != nil {
		return err
	}
	if st != nil {
		n.windowJ, n.windowSec = n.ckpt.windowJ, n.ckpt.windowSec
		n.windowBgJ, n.windowRefJ = n.ckpt.windowBgJ, n.ckpt.windowRefJ
		n.lastRec = n.ckpt.lastRec
	} else {
		n.windowJ, n.windowSec = 0, 0
		n.windowBgJ, n.windowRefJ = 0, 0
		n.lastRec = sim.EpochRecord{}
	}
	n.epochs = from
	n.recoveryEpochs += crashedAt - from
	return nil
}

// observe packages the last window for the cap planner. A node inside
// a loss window reports not-alive: the coordinator re-water-fills its
// budget share across the survivors and freezes its cap until rejoin.
func (n *node) observe() nodeObs {
	if n.dead || n.lost || n.windowSec <= 0 {
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
