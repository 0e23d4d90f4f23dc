package core

import (
	"memscale/internal/config"
	"memscale/internal/power"
	"memscale/internal/sim"
)

// Speculation lets a Policy decide before its calibrated rest-of-system
// power is known. The paired runner calibrates that power from the
// unmanaged baseline (Section 4.1), which it simulates alongside the
// managed run; the power enters the managed trajectory only through the
// Equation 10 argmin at each decision. So until the calibrated value
// resolves, each decision scores with an estimate and logs the feasible
// candidates' (memory joules, seconds) terms. Once the value is known,
// Confirm replays every logged argmin with it: if every choice matches,
// the run is exactly the run the calibrated value would have produced.
//
// A Speculation belongs to one managed run; it is not safe for
// concurrent use.
type Speculation struct {
	resolve  func() (float64, bool)
	estimate func(sim.Profile) float64

	known  bool
	nonMem float64

	log []guess
}

// guess is one decision taken on an estimate.
type guess struct {
	chosen config.FreqMHz
	cands  []candidate // feasible candidates in scan order, nominal first
}

// candidate is one frequency's Equation 10 terms.
type candidate struct {
	f          config.FreqMHz
	memJ, secs float64
}

// NewSpeculation builds a speculation. resolve reports the calibrated
// rest-of-system power once it is known; it is polled at every decision
// until then and must not block. estimate, when non-nil, replaces the
// default guess: RestOfSystemPower of the profiling window's own DIMM
// power, the same calibration the baseline applies to its whole run.
func NewSpeculation(resolve func() (float64, bool), estimate func(sim.Profile) float64) *Speculation {
	return &Speculation{resolve: resolve, estimate: estimate}
}

// lookup returns the rest-of-system power a decision scores with, and
// whether it is an estimate the decision must log.
func (s *Speculation) lookup(prof sim.Profile, emod *power.Model) (float64, bool) {
	if !s.known {
		s.nonMem, s.known = s.resolve()
	}
	if s.known {
		return s.nonMem, false
	}
	if s.estimate != nil {
		return s.estimate(prof), true
	}
	secs := prof.Elapsed().Seconds()
	if secs <= 0 {
		return 0, true
	}
	return emod.RestOfSystemPower((prof.Energy.DRAM() + prof.Energy.PLLReg) / secs), true
}

// Guesses returns how many decisions were taken on an estimate.
func (s *Speculation) Guesses() int { return len(s.log) }

// Confirm replays every decision taken on an estimate with the
// calibrated rest-of-system power nonMem and reports whether each one
// picks the frequency it picked. It scores through the same helper as
// the live decision, so the replay rounds exactly as a decision made
// with nonMem from the start would.
func (s *Speculation) Confirm(nonMem float64) bool {
	for _, g := range s.log {
		best := g.cands[0]
		bestScore := systemScore(best.memJ, best.secs, nonMem)
		for _, c := range g.cands[1:] {
			if sc := systemScore(c.memJ, c.secs, nonMem); sc < bestScore {
				best, bestScore = c, sc
			}
		}
		if best.f != g.chosen {
			return false
		}
	}
	return true
}

// systemScore is the Equation 10 numerator: the predicted memory energy
// plus the rest of the system's draw over the predicted run time.
func systemScore(memJ, secs, nonMem float64) float64 {
	return memJ + nonMem*secs
}
