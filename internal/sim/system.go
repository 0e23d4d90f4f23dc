// Package sim wires the full evaluation platform together — cores,
// memory controller, DRAM ranks, and power metering — and drives the
// paper's epoch loop: profile for 300 us at each OS quantum boundary,
// let the governor pick a memory frequency, run the quantum, account
// slack (Section 3.2).
package sim

import (
	"context"
	"fmt"
	"time"

	"memscale/internal/config"
	"memscale/internal/cpu"
	"memscale/internal/dram"
	"memscale/internal/event"
	"memscale/internal/invariant"
	"memscale/internal/memctrl"
	"memscale/internal/power"
	"memscale/internal/telemetry"
	"memscale/internal/trace"
)

// Profile is the information the OS collects from the performance
// counters over one window (a profiling phase or a whole epoch).
type Profile struct {
	Start, End config.Time

	// Counters are the deltas of the Section 3.1 counter set.
	Counters memctrl.Counters

	// Instr is the per-core instructions retired in the window (the
	// TIC counter deltas).
	Instr []float64

	// Interval is the power-accounting flush covering the window: the
	// frequency in force during it, and the PTC/PTCKEL/ATCKEL/
	// POCC-equivalent state fractions the power model needs.
	Interval power.Interval

	// Energy is the metered energy of the window, as integrated by the
	// power meter from Interval.
	Energy power.Breakdown
}

// Elapsed returns the window length.
func (p Profile) Elapsed() config.Time { return p.End - p.Start }

// Governor is an OS energy-management policy: it observes profiles and
// chooses the memory bus frequency.
type Governor interface {
	Name() string

	// ProfileComplete is invoked after each epoch's profiling phase;
	// the returned frequency is applied for the rest of the epoch.
	ProfileComplete(p Profile) config.FreqMHz

	// EpochEnd is invoked with the whole epoch's profile, after the
	// epoch ran at the chosen frequency; governors update their slack
	// accounting here.
	EpochEnd(p Profile)
}

// EpochRecord captures one epoch for timeline figures. It is the
// telemetry layer's epoch snapshot — one type serves the internal
// timeline, the public API sample, and the JSONL export.
type EpochRecord = telemetry.EpochSnapshot

// Result summarizes a run.
type Result struct {
	Duration config.Time

	// Per-core totals over the full run.
	Instructions []float64
	CPI          []float64

	// Energy.
	Memory       power.Breakdown // memory-subsystem energy (joules)
	NonMemEnergy float64         // rest-of-system energy (joules)
	NonMemPower  float64         // the fixed power it was computed from
	DIMMAvgWatts float64         // average DIMM (DRAM+PLL/Reg) power
	MemAvgWatts  float64         // average memory-subsystem power

	// FreqTime is the time spent at each bus frequency.
	FreqTime map[config.FreqMHz]config.Time

	// Residency is the run's DRAM state-residency account summed over
	// ranks; its Total() equals Duration times the rank count.
	Residency dram.Account

	// Epochs is the per-epoch timeline (only when KeepTimeline).
	Epochs []EpochRecord

	// Events is the number of simulation events fired over the run —
	// the denominator that normalizes host-time throughput (events/op)
	// across workload changes.
	Events uint64

	// InvariantChecks is the number of runtime invariant checks that
	// passed over the run (energy conservation, residency summation,
	// slack ledger). A violated check aborts the run with a typed
	// *invariant.Violation instead of counting.
	InvariantChecks uint64
}

// SystemEnergy returns total server energy for the run.
func (r Result) SystemEnergy() float64 { return r.Memory.Memory() + r.NonMemEnergy }

// SetNonMemPower accounts the run's rest-of-system energy at w watts.
// Nothing else in a run reads Options.NonMemPower, so a caller that
// learns the calibrated power only after the run can set it here and
// get the Result the run would have finished with.
func (r *Result) SetNonMemPower(w float64) {
	r.NonMemPower = w
	r.NonMemEnergy = w * r.Duration.Seconds()
}

// MeanCPI returns the average per-core CPI.
func (r Result) MeanCPI() float64 {
	if len(r.CPI) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.CPI {
		s += c
	}
	return s / float64(len(r.CPI))
}

// Options configure a run.
type Options struct {
	// Governor picks frequencies; nil runs the baseline (nominal
	// frequency, no scaling), still with epoch-granularity metering.
	Governor Governor

	// NonMemPower is the fixed rest-of-system power (watts). Use the
	// calibration helper in the experiment layer to derive it; zero is
	// allowed (memory-only energy accounting).
	NonMemPower float64

	// KeepTimeline retains per-epoch records in the Result.
	KeepTimeline bool

	// Telemetry, when non-nil, receives samples, events, and epoch
	// snapshots from every layer of the system. Purely observational:
	// the simulated event sequence is identical with or without it.
	Telemetry *telemetry.Recorder

	// DisableCoalescing forces every completion, refresh, and powerdown
	// transition onto the fully event-driven slow path, firing one event
	// per micro-step as the original formulation did. The coalesced fast
	// paths are constructed to be bit-identical to this mode (the
	// conservation property in this package and the runner's
	// TestEquivalence check exactly that), so the switch exists for
	// differential testing and debugging, not correctness.
	DisableCoalescing bool
}

// System is one fully wired simulated server.
type System struct {
	Cfg    config.Config
	Q      *event.Queue
	MC     *memctrl.Controller
	Cores  []*cpu.Core
	Model  *power.Model
	Meter  *power.Meter
	opts   Options
	result Result

	lastCounters memctrl.Counters
	lastInstr    []float64
	started      bool

	// capFreq is the external frequency ceiling (0 = uncapped); see
	// SetFrequencyCap.
	capFreq config.FreqMHz

	// step carries the epoch loop's cross-epoch state so the loop can
	// run either to completion (run) or one epoch at a time (StepEpoch).
	step stepState

	// invEnergyJ is the invariant plane's energy witness: the running
	// sum of per-epoch memory energy, accumulated with a different
	// float association than the meter's per-interval total so the two
	// cross-check each other.
	invEnergyJ float64
}

// stepState is the loop-carried state of the epoch loop, hoisted out of
// RunForContext so StepEpoch can execute one iteration at a time with
// identical behaviour.
type stepState struct {
	predictor interface {
		PredictedMeanCPI(config.FreqMHz) float64
	}
	slacker  interface{ Slack() []config.Time }
	minSlack interface{ MinSlack() config.Time }

	prevSlack []config.Time
	idx       int
}

// ticketsPerBurst bounds the event-queue tickets a run spends per bus
// burst slot. Memory requests drive nearly every event, and the MEM and
// MID mixes of Table 1 spend 5.8–6.0 tickets per served burst at 1, 2
// and 4 channels, including single-channel MEM runs that keep the bus
// within 5% of its peak burst rate; the bound doubles that.
const ticketsPerBurst = 12

// MaxEpochs returns the longest run, in OS epochs from a cold start,
// whose event tickets are sure to fit the queue's sequence field
// (event.MaxTickets). A channel serves at most one burst per burst time
// at the fastest bus frequency, so the bound scales inversely with the
// channel count: 22,906 epochs (about 115 simulated seconds) on the
// paper's four channels, 91,625 on one. An invalid cfg (no channels, a
// zero burst time) gets a finite bound instead of a division by zero;
// config.Validate rejects it elsewhere. Dividing by each factor in
// turn, rather than by their product, keeps a huge channel count from
// wrapping the divisor around to a small one.
func MaxEpochs(cfg *config.Config) int {
	slots := uint64(cfg.Policy.EpochLength / max(cfg.Timing.BurstTime(config.MaxBusFreq), 1))
	return int(event.MaxTickets / ticketsPerBurst / max(slots, 1) / max(uint64(cfg.Channels), 1))
}

// New builds a system running the given per-core streams under cfg.
func New(cfg config.Config, streams []*trace.Stream, opts Options) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(streams), cfg.Cores)
	}
	s := &System{Cfg: cfg, opts: opts, Q: &event.Queue{}}
	s.MC = memctrl.New(&s.Cfg, s.Q)
	s.Model = power.NewModel(&s.Cfg)
	s.Meter = power.NewMeter(s.Model)
	if opts.Telemetry != nil {
		s.MC.SetTelemetry(opts.Telemetry)
		s.Meter.SetTelemetry(opts.Telemetry)
	}
	for i, st := range streams {
		s.Cores = append(s.Cores, cpu.New(i, &s.Cfg, s.Q, s.MC, st))
	}
	s.result.FreqTime = map[config.FreqMHz]config.Time{}
	return s, nil
}

func (s *System) start() {
	if s.started {
		panic("sim: system started twice")
	}
	s.started = true
	s.MC.Start()
	for _, c := range s.Cores {
		c.Start(s.Q.Now())
	}
	s.lastCounters = s.MC.Counters()
	s.lastInstr = make([]float64, len(s.Cores))
	s.bindGovernor()

	if s.opts.Telemetry != nil && s.step.slacker != nil {
		s.step.prevSlack = s.step.slacker.Slack()
	}
}

// bindGovernor derives the epoch loop's governor hooks. Split out of
// start so a checkpoint restore can bind the hooks without re-running
// the boot sequence.
func (s *System) bindGovernor() {
	// Optional governor hooks the telemetry decision and slack traces
	// probe for; governors that lack them simply produce sparser traces.
	s.step.predictor, _ = s.opts.Governor.(interface {
		PredictedMeanCPI(config.FreqMHz) float64
	})
	s.step.slacker, _ = s.opts.Governor.(interface{ Slack() []config.Time })
	s.step.minSlack, _ = s.opts.Governor.(interface{ MinSlack() config.Time })
}

// SetFrequencyCap sets the external bus-frequency ceiling applied to
// the governor's choice from the next epoch on; 0 clears the cap.
// This is the hook cluster-level power capping feeds (internal/fleet).
// f must be 0 or on the bus-frequency ladder.
func (s *System) SetFrequencyCap(f config.FreqMHz) error {
	if f != 0 && !config.ValidBusFrequency(f) {
		return fmt.Errorf("sim: frequency cap %v is not on the bus-frequency ladder", f)
	}
	s.capFreq = f
	return nil
}

// FrequencyCap returns the ceiling set by SetFrequencyCap (0 when
// uncapped).
func (s *System) FrequencyCap() config.FreqMHz { return s.capFreq }

// flush closes the power interval at now, meters it, and returns it
// alongside its energy breakdown.
func (s *System) flush(now config.Time) (power.Interval, power.Breakdown) {
	iv := s.MC.FlushInterval(now)
	b := s.Meter.Record(iv)
	s.result.FreqTime[iv.BusFreq] += iv.Duration
	return iv, b
}

// window snapshots counter/instruction deltas since the last call and
// pairs them with the flushed power interval.
func (s *System) window(start, now config.Time) Profile {
	cur := s.MC.Counters()
	instr := make([]float64, len(s.Cores))
	for i, c := range s.Cores {
		total := c.Instructions(now)
		instr[i] = total - s.lastInstr[i]
		s.lastInstr[i] = total
	}
	iv, b := s.flush(now)
	p := Profile{
		Start:    start,
		End:      now,
		Counters: cur.Sub(s.lastCounters),
		Instr:    instr,
		Interval: iv,
		Energy:   b,
	}
	s.lastCounters = cur
	return p
}

// RunFor runs whole epochs until at least d has elapsed.
func (s *System) RunFor(d config.Time) Result {
	r, _ := s.RunForContext(context.Background(), d)
	return r
}

// RunForContext is RunFor with cancellation: it runs whole epochs
// until at least d has elapsed, polling ctx at a sub-epoch granularity
// so a cancelled run returns promptly with ctx.Err(). A run is only
// meaningful when the error is nil; cancellation discards the partial
// result. Cancellation never alters a completed run: the event
// sequence of an uncancelled simulation is bit-identical to RunFor.
func (s *System) RunForContext(ctx context.Context, d config.Time) (Result, error) {
	if !s.started {
		s.start()
	}
	for {
		rec, err := s.stepEpoch(ctx, false)
		if err != nil {
			return Result{}, err
		}
		if rec.End >= d {
			return s.finalize(), nil
		}
	}
}

// cancelCheckStep is the simulated-time granularity at which the epoch
// loop polls the context: 100 us gives ~50 checks per 5 ms OS quantum,
// keeping cancellation latency a small fraction of an epoch's host
// time while adding negligible overhead.
const cancelCheckStep = 100 * config.Microsecond

// stepUntil drains the event queue up to deadline, polling ctx every
// cancelCheckStep of simulated time. Splitting RunUntil into chunks is
// behavior-identical: events still fire in timestamp order, and the
// clock lands exactly on deadline.
func (s *System) stepUntil(ctx context.Context, deadline config.Time) error {
	if !s.opts.DisableCoalescing {
		// Between here and the deadline nothing samples counters, power,
		// or instruction state, so the controller may collapse
		// completions into closed-form inline updates (DESIGN.md §4g).
		// Cancellation is safe: an aborted run discards its partial
		// result, so mid-chunk state is never observed either.
		s.MC.SetQuiesceHorizon(deadline)
	}
	if ctx.Done() == nil {
		// No cancellation possible (context.Background()): skip the
		// chunking entirely.
		s.Q.RunUntil(deadline)
		return nil
	}
	for {
		next := s.Q.Now() + cancelCheckStep
		if next > deadline {
			next = deadline
		}
		s.Q.RunUntil(next)
		if err := ctx.Err(); err != nil {
			return err
		}
		if next >= deadline {
			return nil
		}
	}
}

// StepEpoch advances the simulation by exactly one OS epoch and returns
// its fully assembled record, starting the system on the first call.
// Interleaving StepEpoch with configuration hooks (SetFrequencyCap,
// per-stream intensity changes) is the substrate for closed-loop
// drivers such as the fleet coordinator; a run stepped to the same
// horizon with unchanged hooks is bit-identical to RunFor. Call
// Finalize when done stepping.
func (s *System) StepEpoch(ctx context.Context) (EpochRecord, error) {
	if !s.started {
		s.start()
	}
	return s.stepEpoch(ctx, true)
}

// Finalize closes the run after manual StepEpoch driving and returns
// the accumulated Result (the same totals run-to-completion callers
// get).
func (s *System) Finalize() Result {
	if !s.started {
		panic("sim: Finalize before any epoch ran")
	}
	return s.finalize()
}

// stepEpoch executes one epoch of the loop: profile, decide, run the
// quantum, account. The returned record always carries Index, Start,
// End, Freq, and WantFreq; the full snapshot (CPI, energy, residency)
// is assembled when the caller wants it or telemetry/timeline needs it
// anyway.
func (s *System) stepEpoch(ctx context.Context, wantRec bool) (EpochRecord, error) {
	tel := s.opts.Telemetry
	idx := s.step.idx
	s.step.idx++
	start := s.Q.Now()
	freq := s.MC.BusFreq()
	tel.SetEpoch(idx)
	var hostStart time.Time
	if tel != nil {
		// Host wall clock is observed only under telemetry and never
		// feeds back into simulated time.
		hostStart = time.Now()
	}

	// Profiling phase.
	profEnd := start + s.Cfg.Policy.ProfilingLength
	if err := s.stepUntil(ctx, profEnd); err != nil {
		return EpochRecord{}, err
	}
	p := s.window(start, profEnd)

	// Control algorithm invocation + bus frequency re-locking. The
	// external cap (cluster power capping) bounds the governor's
	// choice; WantFreq reports what the node would run uncapped.
	chosen := freq
	want := freq
	if s.opts.Governor != nil {
		chosen = s.opts.Governor.ProfileComplete(p)
		want = chosen
		if s.capFreq != 0 && chosen > s.capFreq {
			chosen = s.capFreq
		}
		if chosen != freq {
			s.MC.SetBusFrequency(profEnd, chosen)
		}
	}
	var predicted float64
	if tel != nil && s.step.predictor != nil {
		predicted = s.step.predictor.PredictedMeanCPI(chosen)
	}

	// Run out the epoch at the chosen frequency.
	epochEnd := start + s.Cfg.Policy.EpochLength
	if err := s.stepUntil(ctx, epochEnd); err != nil {
		return EpochRecord{}, err
	}
	ep := s.window(profEnd, epochEnd)
	if s.opts.Governor != nil {
		// The governor accounts slack over the whole epoch.
		whole := ep
		whole.Start = start
		whole.Counters = p.Counters.Add(ep.Counters)
		whole.Instr = make([]float64, len(p.Instr))
		for i := range whole.Instr {
			whole.Instr[i] = p.Instr[i] + ep.Instr[i]
		}
		s.opts.Governor.EpochEnd(whole)
	}
	if slacker := s.step.slacker; tel != nil && slacker != nil {
		cur := slacker.Slack()
		for i := range cur {
			var prev config.Time
			if i < len(s.step.prevSlack) {
				prev = s.step.prevSlack[i]
			}
			tel.Slack(epochEnd, i, (cur[i] - prev).Seconds(), cur[i].Seconds())
		}
		s.step.prevSlack = cur
	}

	if err := s.checkInvariants(start, epochEnd, p, ep); err != nil {
		return EpochRecord{}, err
	}

	var rec EpochRecord
	if wantRec || s.opts.KeepTimeline || tel != nil {
		rec = s.snapshotEpoch(idx, start, profEnd, epochEnd, chosen, want, p, ep)
		if tel != nil {
			rec.HostNs = time.Since(hostStart).Nanoseconds()
			tel.ObserveEpochHost(rec.HostNs)
			if s.opts.Governor != nil {
				tel.Decision(profEnd, freq, chosen, predicted, rec.MeanCPI())
			}
			tel.AddEpoch(rec)
		}
		if s.opts.KeepTimeline {
			s.result.Epochs = append(s.result.Epochs, rec)
		}
	} else {
		// Run-to-completion callers only consult the epoch bounds;
		// skip the full snapshot assembly.
		rec.Index = idx
		rec.Start = start
		rec.End = epochEnd
		rec.Freq = chosen
		rec.WantFreq = want
	}
	return rec, nil
}

// energyWitnessRelTol bounds the drift between the invariant plane's
// per-epoch energy witness and the meter's per-interval total. The two
// sum the same values under different float associations, so they
// agree to a few ulps per epoch; 1e-9 relative leaves ~7 orders of
// magnitude of headroom over that while catching any real divergence
// (a dropped interval, a double count, a NaN).
const energyWitnessRelTol = 1e-9

// checkInvariants is the runtime invariant plane's per-epoch pass
// (DESIGN.md §4j). Every check is allocation-free and runs on every
// epoch of every run; a failure aborts the epoch with a typed
// *invariant.Violation wrapping invariant.ErrInvariant.
func (s *System) checkInvariants(start, epochEnd config.Time, p, ep Profile) error {
	// Residency conservation: the DRAM background-state account over
	// the epoch's two windows must sum to exactly epoch-length x ranks
	// — integer nanosecond bookkeeping, so equality is exact.
	wantRes := (epochEnd - start) * config.Time(s.Cfg.TotalRanks())
	gotRes := p.Interval.DRAMTotal().Total() + ep.Interval.DRAMTotal().Total()
	if gotRes != wantRes {
		return invariant.Violated("residency_epoch_sum",
			"epoch [%v, %v): residency sums to %v, want %v (%d ranks)",
			start, epochEnd, gotRes, wantRes, s.Cfg.TotalRanks())
	}
	s.result.InvariantChecks++

	// Energy conservation: the per-epoch witness must track the meter.
	s.invEnergyJ += p.Energy.Memory() + ep.Energy.Memory()
	if metered := s.Meter.Total().Memory(); !invariant.CloseRel(s.invEnergyJ, metered, energyWitnessRelTol) {
		return invariant.Violated("energy_conservation",
			"epoch ending %v: witness %.12g J vs metered %.12g J beyond %g relative",
			epochEnd, s.invEnergyJ, metered, energyWitnessRelTol)
	}
	s.result.InvariantChecks++

	// Slack ledger: Equation 1's account may dip below zero only by
	// the model's one-epoch misprediction (EpochEnd refits before
	// updating, so the realized target can undershoot the projected
	// one); anything past a full epoch of debt is corruption, not
	// misprediction.
	if s.step.minSlack != nil {
		epoch := s.Cfg.Policy.EpochLength
		if lo := s.step.minSlack.MinSlack(); lo < -epoch {
			return invariant.Violated("slack_ledger",
				"epoch ending %v: min per-core slack %v below one-epoch bound -%v",
				epochEnd, lo, epoch)
		}
		s.result.InvariantChecks++
	}
	return nil
}

// snapshotEpoch assembles the per-epoch telemetry record from the two
// windows of one epoch (profiling phase + epoch body).
func (s *System) snapshotEpoch(idx int, start, profEnd, epochEnd config.Time,
	chosen, want config.FreqMHz, p, ep Profile) EpochRecord {
	energy := p.Energy
	energy.Add(ep.Energy)
	residency := p.Interval.DRAMTotal()
	residency.Add(ep.Interval.DRAMTotal())

	coreCPI := make([]float64, len(s.Cores))
	cycles := s.Cfg.TimeToCPUCycles(epochEnd - start)
	for i := range s.Cores {
		if n := p.Instr[i] + ep.Instr[i]; n > 0 {
			coreCPI[i] = cycles / n
		}
	}
	util := make([]float64, len(ep.Interval.Channels))
	for i := range ep.Interval.Channels {
		util[i] = float64(ep.Interval.Channels[i].Busy) / float64(ep.Interval.Duration)
	}
	return EpochRecord{
		Index:       idx,
		Start:       start,
		End:         epochEnd,
		Freq:        chosen,
		WantFreq:    want,
		CoreCPI:     coreCPI,
		ChannelUtil: util,
		Energy:      energy.Export(),
		Residency:   residency,
		Reads:       p.Counters.Reads + ep.Counters.Reads,
		Writebacks:  p.Counters.Writebacks + ep.Counters.Writebacks,
	}
}

func (s *System) finalize() Result {
	now := s.Q.Now()
	r := &s.result
	r.Duration = now
	r.Instructions = make([]float64, len(s.Cores))
	r.CPI = make([]float64, len(s.Cores))
	for i, c := range s.Cores {
		r.Instructions[i] = c.Instructions(now)
		r.CPI[i] = c.CPI(now)
	}
	r.Memory = s.Meter.Total()
	r.Residency = s.Meter.Residency()
	r.SetNonMemPower(s.opts.NonMemPower)
	r.DIMMAvgWatts = s.Meter.AverageDIMMPower()
	r.MemAvgWatts = s.Meter.AveragePower()
	r.Events = s.Q.Fired()
	return *r
}
