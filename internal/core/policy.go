package core

import (
	"memscale/internal/config"
	"memscale/internal/power"
	"memscale/internal/sim"
)

// Objective selects what the frequency search minimizes.
type Objective int

// Objectives (Section 4.2.3 compares both).
const (
	// MinimizeSystemEnergy is full MemScale: account for the energy
	// the rest of the server burns while memory runs slower.
	MinimizeSystemEnergy Objective = iota
	// MinimizeMemoryEnergy is the "MemScale (MemEnergy)" variant.
	MinimizeMemoryEnergy
)

// Options configure the policy.
type Options struct {
	// NonMemPower is the fixed rest-of-system power in watts used by
	// the system energy ratio (Equation 10).
	NonMemPower float64

	Objective Objective

	// Speculation, when non-nil, supplies the rest-of-system power
	// instead of NonMemPower: the calibrated value once it resolves, an
	// estimate logged for confirmation before that.
	Speculation *Speculation
}

// Policy is the MemScale governor.
type Policy struct {
	cfg   *config.Config
	model *PerfModel
	emod  *power.Model
	opts  Options
	gamma float64

	slack []config.Time // per-core accumulated slack (Equation 1)

	chosen config.FreqMHz // frequency selected for the current epoch

	// Diagnostics.
	decisions  int
	timeAtFreq map[config.FreqMHz]int
}

// NewPolicy builds the governor for cfg.
func NewPolicy(cfg *config.Config, opts Options) *Policy {
	return &Policy{
		cfg:        cfg,
		model:      NewPerfModel(cfg),
		emod:       power.NewModel(cfg),
		opts:       opts,
		gamma:      cfg.Policy.Gamma,
		slack:      make([]config.Time, cfg.Cores),
		chosen:     config.MaxBusFreq,
		timeAtFreq: map[config.FreqMHz]int{},
	}
}

// Name implements sim.Governor.
func (p *Policy) Name() string {
	if p.opts.Objective == MinimizeMemoryEnergy {
		return "memscale-memenergy"
	}
	return "memscale"
}

// Gamma returns the policy's performance-degradation bound.
func (p *Policy) Gamma() float64 { return p.gamma }

// Slack returns the accumulated per-core slack.
func (p *Policy) Slack() []config.Time { return append([]config.Time(nil), p.slack...) }

// MinSlack returns the smallest per-core accumulated slack without
// allocating — the runtime invariant plane polls it every epoch, so it
// must stay off the heap.
func (p *Policy) MinSlack() config.Time {
	if len(p.slack) == 0 {
		return 0
	}
	min := p.slack[0]
	for _, s := range p.slack[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// ProfileComplete implements sim.Governor: fit the models to the
// profiling window and pick the epoch frequency.
func (p *Policy) ProfileComplete(prof sim.Profile) config.FreqMHz {
	p.model.Fit(prof)
	epoch := p.cfg.Policy.EpochLength

	nonMem, g := p.nonMem(prof)
	best := config.MaxBusFreq
	bestScore := p.score(prof, config.MaxBusFreq, nonMem, g)
	for _, f := range config.BusFrequencies[1:] {
		if !p.feasible(f, epoch) {
			continue
		}
		if s := p.score(prof, f, nonMem, g); s < bestScore {
			best, bestScore = f, s
		}
	}
	if g != nil {
		g.chosen = best
		p.opts.Speculation.log = append(p.opts.Speculation.log, *g)
	}
	p.chosen = best
	p.decisions++
	p.timeAtFreq[best]++
	return best
}

// feasible reports whether running the next epoch at f keeps every
// core's accumulated slack non-negative (Equation 1 projected one
// epoch forward).
func (p *Policy) feasible(f config.FreqMHz, epoch config.Time) bool {
	for i := range p.slack {
		if p.model.CPIObs[i] <= 0 {
			continue
		}
		cpiMax := p.model.CPI(i, config.MaxBusFreq)
		cpiF := p.model.CPI(i, f)
		if cpiF <= 0 {
			continue
		}
		// Work done in an epoch at f would have taken
		// epoch * cpiMax/cpiF at nominal frequency; the target grants
		// (1+gamma) of that.
		gain := config.Time(float64(epoch) * ((1 + p.gamma) * cpiMax / cpiF))
		if p.slack[i]+gain-epoch < 0 {
			return false
		}
	}
	return true
}

// nonMem returns the rest-of-system power a decision scores with, and
// the log entry to record its candidates in when that power is a
// speculative estimate. The memory-energy objective never reads it.
func (p *Policy) nonMem(prof sim.Profile) (float64, *guess) {
	sp := p.opts.Speculation
	if sp == nil || p.opts.Objective == MinimizeMemoryEnergy {
		return p.opts.NonMemPower, nil
	}
	w, estimated := sp.lookup(prof, p.emod)
	if !estimated {
		return w, nil
	}
	return w, &guess{}
}

// score evaluates the Equation 10 numerator (predicted energy for the
// profiled work at f) with rest-of-system power nonMem; SER's
// denominator is common to all candidates, so minimizing the numerator
// minimizes SER. A non-nil g logs the candidate's terms.
func (p *Policy) score(prof sim.Profile, f config.FreqMHz, nonMem float64, g *guess) float64 {
	relTime := p.model.RelTime(f, prof.Interval.BusFreq)
	mem := p.predictMemEnergy(prof, f, relTime)
	if p.opts.Objective == MinimizeMemoryEnergy {
		return mem
	}
	secs := config.Time(float64(prof.Elapsed()) * relTime).Seconds()
	if g != nil {
		g.cands = append(g.cands, candidate{f: f, memJ: mem, secs: secs})
	}
	return systemScore(mem, secs, nonMem)
}

// predictMemEnergy builds the what-if power-model interval for
// frequency f from the profiled interval: background states stretch
// with run time, per-access energies keep their counts, burst
// occupancies rescale with the burst length ratio.
func (p *Policy) predictMemEnergy(prof sim.Profile, f config.FreqMHz, relTime float64) float64 {
	iv := prof.Interval
	burstRatio := float64(p.model.Timing(f).Burst) / float64(p.model.Timing(iv.BusFreq).Burst)

	pred := power.Interval{
		Duration: scaleT(iv.Duration, relTime),
		BusFreq:  f,
		Channels: make([]power.ChannelSlice, len(iv.Channels)),
	}
	for i, ch := range iv.Channels {
		a := ch.DRAM
		a.ActiveStandby = scaleT(a.ActiveStandby, relTime)
		a.PrechargeStandby = scaleT(a.PrechargeStandby, relTime)
		a.ActivePD = scaleT(a.ActivePD, relTime)
		a.PrechargePD = scaleT(a.PrechargePD, relTime)
		a.PrechargePDSlow = scaleT(a.PrechargePDSlow, relTime)
		a.Refreshing = scaleT(a.Refreshing, relTime)
		a.ReadBurst = scaleT(a.ReadBurst, burstRatio)
		a.WriteBurst = scaleT(a.WriteBurst, burstRatio)
		a.TermBurst = scaleT(a.TermBurst, burstRatio)
		pred.Channels[i] = power.ChannelSlice{DRAM: a, Busy: scaleT(ch.Busy, burstRatio)}
	}
	return p.emod.Energy(pred).Memory()
}

func scaleT(t config.Time, k float64) config.Time {
	return config.Time(float64(t)*k + 0.5)
}

// EpochEnd implements sim.Governor: update per-core slack with the
// epoch's actual outcome (stage 4 of Section 3.2).
func (p *Policy) EpochEnd(prof sim.Profile) {
	// Refit to the whole epoch so the "what would max frequency have
	// done" estimate reflects what actually ran.
	p.model.Fit(prof)
	elapsed := prof.Elapsed()
	for i := range p.slack {
		instr := prof.Instr[i]
		if instr <= 0 || p.model.CPIObs[i] <= 0 {
			continue
		}
		// Estimated time this epoch's work would have taken at max
		// frequency (Equation 1's T_MaxFreq), in seconds per the model.
		tpiMax := p.model.TPICpu[i] + p.model.Alpha[i]*p.model.TPIMem(config.MaxBusFreq)
		target := config.FromSeconds(instr * tpiMax * (1 + p.gamma))
		p.slack[i] += target - elapsed
	}
}

// PredictedMeanCPI returns the fitted model's mean CPI across active
// cores at bus frequency f — what the governor expected the epoch to
// cost when it chose f. Zero when no core has observations. The
// simulator probes this optional method to pair predictions with
// measured epoch CPIs in the telemetry decision trace.
func (p *Policy) PredictedMeanCPI(f config.FreqMHz) float64 {
	var sum float64
	var n int
	// Ranging over the model (not p.slack) keeps this safe when no
	// epoch has been fitted yet.
	for i := range p.model.CPIObs {
		if p.model.CPIObs[i] <= 0 {
			continue
		}
		sum += p.model.CPI(i, f)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Decisions returns how many frequency decisions the policy has made.
func (p *Policy) Decisions() int { return p.decisions }

// FreqChoices returns how often each frequency was chosen.
func (p *Policy) FreqChoices() map[config.FreqMHz]int {
	out := make(map[config.FreqMHz]int, len(p.timeAtFreq))
	for f, n := range p.timeAtFreq {
		out[f] = n
	}
	return out
}
