package memscale

import (
	"math"
	"testing"
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
