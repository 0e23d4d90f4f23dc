// Package fleet scales the single-node MemScale simulation to a
// cluster: N nodes, each a full discrete-event run, driven by
// open-loop arrival processes and coordinated by a FastCap-style
// cluster power capper that redistributes a global memory-power
// budget every fleet epoch (DESIGN.md §4h).
package fleet

import (
	"cmp"
	"fmt"
	"math"

	"memscale/internal/trace"
)

// ArrivalKind names an open-loop arrival process shape.
type ArrivalKind string

// The supported arrival processes. Every node derives its per-epoch
// request-rate profile from per-user rates: the nominal offered load
// is usersPerNode x requestsPerUserHz, and each epoch's realized load
// is expressed as an intensity multiplier relative to that nominal,
// which scales the node's effective memory pressure (trace
// SetIntensity).
const (
	// ArrivalSteady offers exactly the nominal load every epoch
	// (multiplier 1.0, bit-identical to an undriven node).
	ArrivalSteady ArrivalKind = "steady"

	// ArrivalPoisson draws each epoch's request count from a Poisson
	// process at the nominal rate.
	ArrivalPoisson ArrivalKind = "poisson"

	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// nodes flip between the nominal rate and burstFactor times it,
	// with geometric burst durations.
	ArrivalBursty ArrivalKind = "bursty"

	// ArrivalDiurnal modulates the Poisson rate by a sinusoid of
	// amplitude diurnalAmplitude over the fleet horizon (one "day" per
	// run), with a deterministic per-node phase offset (nodes in
	// different "timezones" peak at different epochs).
	ArrivalDiurnal ArrivalKind = "diurnal"
)

// The fixed parameters of the arrival processes. The nominal load is
// 1000 users x 20 req/s per node; over a 5 ms epoch that is a Poisson
// rate of 100, whose relative noise drives the intensity multipliers.
const (
	usersPerNode      = 1000.0
	requestsPerUserHz = 20.0

	// burstFactor is the bursty-state rate multiplier, burstProbability
	// the per-epoch chance of entering a burst, burstMeanEpochs the
	// mean burst length.
	burstFactor      = 4.0
	burstProbability = 0.05
	burstMeanEpochs  = 5.0

	// diurnalAmplitude is the sinusoid's relative amplitude: a trough
	// offers 40% of the nominal load, a peak 160%.
	diurnalAmplitude = 0.6
)

// ArrivalConfig selects one group's arrival process. The zero value
// selects a steady nominal load.
type ArrivalConfig struct {
	Kind ArrivalKind
}

// kind returns the configured kind, steady when unset. An unknown kind
// fails naming the field in snake_case, like the rest of the fleet
// configuration's field paths.
func (a ArrivalConfig) kind() (ArrivalKind, error) {
	switch k := cmp.Or(a.Kind, ArrivalSteady); k {
	case ArrivalSteady, ArrivalPoisson, ArrivalBursty, ArrivalDiurnal:
		return k, nil
	}
	return "", fmt.Errorf("kind: unknown arrival kind %q", a.Kind)
}

// Intensity multipliers are clamped to keep the scaled miss rate
// inside the trace generator's sane range: a zero-request epoch still
// simulates a trickle, and a pathological burst cannot drive the mean
// gap to zero.
const (
	minIntensity = 0.05
	maxIntensity = 20.0
)

// schedule precomputes a node's per-epoch intensity multipliers under
// the arrival process kind. The sequence is a pure function of (seed,
// node, epochs) — workers, wall clock, and sibling nodes never
// influence it — and the steady kind returns exact 1.0 entries so an
// undriven fleet is bit-identical to plain paired runs.
func schedule(kind ArrivalKind, seed uint64, node, epochs int, epochSeconds float64) []float64 {
	out := make([]float64, epochs)
	if kind == ArrivalSteady {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	rng := trace.NewRNG(trace.Seed("fleet-arrival", int(seed), node))
	lambda := usersPerNode * requestsPerUserHz * epochSeconds

	// Per-node diurnal phase: a fixed fraction of the period, so the
	// fleet's load peaks are staggered deterministically.
	phase := rng.Float64() * float64(epochs)

	bursting := false
	for i := range out {
		rate := 1.0
		switch kind {
		case ArrivalBursty:
			if bursting {
				// Geometric burst duration with mean burstMeanEpochs.
				if rng.Float64() < 1/burstMeanEpochs {
					bursting = false
				}
			} else if rng.Float64() < burstProbability {
				bursting = true
			}
			if bursting {
				rate = burstFactor
			}
		case ArrivalDiurnal:
			rate = 1 + diurnalAmplitude*
				math.Sin(2*math.Pi*(float64(i)+phase)/float64(epochs))
		}
		// Realized intensity = Poisson noise around the modulated rate,
		// expressed relative to the nominal rate.
		out[i] = clampIntensity(poissonIntensity(rng, lambda*rate) * rate)
	}
	return out
}

// poissonIntensity draws a Poisson count at the given rate and
// normalizes it back to a multiplier of the rate (mean 1, variance
// 1/rate). Degenerate rates yield exactly 1.
func poissonIntensity(rng *trace.RNG, lambda float64) float64 {
	if lambda <= 0 || math.IsInf(lambda, 0) {
		return 1
	}
	return poisson(rng, lambda) / lambda
}

// poisson samples a Poisson(lambda) count: Knuth's product method for
// small rates, a normal approximation (Box-Muller) beyond it. Both
// paths consume rng deterministically.
func poisson(rng *trace.RNG, lambda float64) float64 {
	if lambda < 64 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= rng.Float64()
		}
		return float64(k - 1)
	}
	// Box-Muller normal approximation: N(lambda, lambda).
	u1 := rng.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := rng.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	n := math.Round(lambda + z*math.Sqrt(lambda))
	if n < 0 {
		n = 0
	}
	return n
}

func clampIntensity(m float64) float64 {
	switch {
	case math.IsNaN(m), m < minIntensity:
		return minIntensity
	case m > maxIntensity:
		return maxIntensity
	}
	return m
}
