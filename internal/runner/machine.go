package runner

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"memscale/internal/config"
	"memscale/internal/sim"
)

// ErrInvalidConfig reports a run or fleet configuration whose scaling
// fields are degenerate (negative epoch/core/channel counts,
// out-of-range gamma, or a machine shape the simulator rejects).
// Matched with errors.Is.
var ErrInvalidConfig = errors.New("invalid run configuration")

// Machine validates the scaling fields a single run or one fleet group
// sets and returns the machine configuration they select; zero values
// select the defaults (10 epochs, gamma 0.10, 16 cores, 4 channels).
// Failures wrap ErrInvalidConfig and name the field: gamma, cores and
// channels under group ("groups[2].gamma"; bare for a single run),
// epochs always at the top level, where both configurations keep it.
func Machine(group string, epochs int, gamma float64, cores, channels int) (config.Config, error) {
	field := func(name string) string {
		if group == "" {
			return name
		}
		return group + "." + name
	}
	switch {
	case epochs < 0:
		return config.Config{}, fmt.Errorf("%w: epochs: must be >= 0 (0 selects the default 10), got %d",
			ErrInvalidConfig, epochs)
	case math.IsNaN(gamma) || gamma < 0 || gamma >= 1:
		return config.Config{}, fmt.Errorf("%w: %s: must be in [0, 1) (0 selects the default 0.10), got %g",
			ErrInvalidConfig, field("gamma"), gamma)
	case cores < 0:
		return config.Config{}, fmt.Errorf("%w: %s: must be >= 0 (0 selects the default), got %d",
			ErrInvalidConfig, field("cores"), cores)
	case channels < 0:
		return config.Config{}, fmt.Errorf("%w: %s: must be >= 0 (0 selects the default), got %d",
			ErrInvalidConfig, field("channels"), channels)
	}
	// Positive but unusable machine shapes are caught by the simulator
	// configuration's own validation; surface them under the same typed
	// error instead of a NaN-filled summary later.
	cfg := machine(gamma, cores, channels)
	if err := cfg.Validate(); err != nil {
		if group != "" {
			return config.Config{}, fmt.Errorf("%w: %s: %v", ErrInvalidConfig, group, err)
		}
		return config.Config{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	// Zero epochs runs the default 10, which must fit too.
	return cfg, CheckRunLength("epochs", cmp.Or(epochs, 10), &cfg)
}

// CheckRunLength rejects a run of epochs OS quanta that could use up
// the event queue's sequence numbers on cfg's machine (sim.MaxEpochs),
// so a too-long run fails before it starts rather than partway through.
func CheckRunLength(field string, epochs int, cfg *config.Config) error {
	if limit := sim.MaxEpochs(cfg); epochs > limit {
		return fmt.Errorf("%w: %s: must be at most %d on %d channels (the event queue's sequence numbers would run out), got %d",
			ErrInvalidConfig, field, limit, cfg.Channels, epochs)
	}
	return nil
}

// machine is the default configuration with the positive scaling
// fields applied.
func machine(gamma float64, cores, channels int) config.Config {
	cfg := config.Default()
	if gamma > 0 {
		cfg.Policy.Gamma = gamma
	}
	if cores > 0 {
		cfg.Cores = cores
	}
	if channels > 0 {
		cfg.Channels = channels
	}
	return cfg
}
