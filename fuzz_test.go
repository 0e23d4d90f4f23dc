package memscale

import (
	"context"
	"errors"
	"math"
	"testing"

	"memscale/internal/config"
	"memscale/internal/sim"
)

// FuzzRunConfigValidate drives validate/withDefaults/job with arbitrary
// scaling values. The contract under test: validation never panics,
// never lets NaN/Inf or out-of-range values through, and anything it
// accepts resolves into a runnable job without error.
func FuzzRunConfigValidate(f *testing.F) {
	f.Add(0, 0.0, 0, 0)
	f.Add(10, 0.10, 16, 4)
	f.Add(-1, math.NaN(), -5, 99)
	f.Add(1, 0.9999, 1, 1)

	f.Fuzz(func(t *testing.T, epochs int, gamma float64, cores, channels int) {
		rc := RunConfig{
			Mix: "MID1", Policy: "MemScale",
			Epochs: epochs, Gamma: gamma, Cores: cores, Channels: channels,
		}
		err := rc.Validate()
		if err != nil {
			return
		}
		// Accepted configurations must be sane and resolvable.
		if math.IsNaN(gamma) || gamma < 0 || gamma >= 1 {
			t.Fatalf("validate accepted Gamma = %g", gamma)
		}
		d := rc.withDefaults()
		if d.Epochs <= 0 || d.Gamma <= 0 || d.Policy == "" {
			t.Fatalf("withDefaults left zero fields: %+v", d)
		}
		if _, err := d.job(); err != nil {
			t.Fatalf("validated config failed to resolve: %v", err)
		}
	})
}

// FuzzFleetConfigValidate drives the fleet configuration's one
// validation pass with arbitrary values. The contract under test:
// Validate never panics, every rejection wraps ErrInvalidConfig,
// nothing non-finite or out of range gets through, and every accepted
// configuration resolves in the fleet engine: RunFleet under a
// cancelled context fails with the cancellation, never with a
// configuration error.
func FuzzFleetConfigValidate(f *testing.F) {
	f.Add(0, 0.0, 0, 1, 0.0, 0, 0, "", "MID1", "")
	f.Add(4, 30.0, 3, 2, 0.10, 2, 1, "diurnal", "MID1/part", "Static")
	f.Add(-1, math.NaN(), -1, 0, 1.5, -1, -1, "nope", "BOGUS", "BOGUS")
	f.Add(1, math.Inf(1), 1, 1, 0.9999, 1, 1, "bursty", "MEM1", "MemScale")
	f.Add(1<<20, 0.0, 0, 1, 0.0, 0, 1, "poisson", "ILP1", "")
	f.Add(1<<39, 0.0, 0, 1, 0.0, 0, 3<<60, "", "MID1", "")

	f.Fuzz(func(t *testing.T, epochs int, budget float64, capEvery, nodes int,
		gamma float64, cores, channels int, kind, mix, policy string) {
		fc := FleetConfig{
			Groups: []NodeGroup{{
				Nodes: nodes, Mix: mix, Policy: policy,
				Gamma: gamma, Cores: cores, Channels: channels,
				Arrival: ArrivalConfig{Kind: ArrivalKind(kind)},
			}},
			Epochs:            epochs,
			PowerBudgetW:      budget,
			CapIntervalEpochs: capEvery,
		}
		if err := fc.Validate(); err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("rejection %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 {
			t.Fatalf("validate accepted PowerBudgetW = %g", budget)
		}
		if math.IsNaN(gamma) || gamma < 0 || gamma >= 1 {
			t.Fatalf("validate accepted Gamma = %g", gamma)
		}
		one := config.Default()
		one.Channels = 1
		if epochs > sim.MaxEpochs(&one) {
			t.Fatalf("validate accepted a %d-epoch horizon on %d channels", epochs, channels)
		}
		// A smaller positive node count is as valid and keeps the
		// precomputed arrival schedules small.
		fc.Groups[0].Nodes = min(nodes, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunFleet(ctx, fc); !errors.Is(err, context.Canceled) {
			t.Fatalf("validated config failed to resolve: %v", err)
		}
	})
}
