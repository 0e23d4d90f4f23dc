// Package policies catalogues the energy-management schemes the paper
// compares in Section 4.2.3: the unmanaged baseline, the fast- and
// slow-exit powerdown controllers, Decoupled DIMMs, the best static
// frequency, and the MemScale variants. Each scheme is a Spec bundling
// the configuration changes it needs with the governor that drives it,
// so experiment code can sweep them uniformly.
package policies

import (
	"errors"
	"fmt"

	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/sim"
)

// ErrUnknownPolicy reports a scheme name outside the Section 4.2.3
// catalogue. ByName wraps it with %w so callers can match with
// errors.Is; the public memscale package re-exports it.
var ErrUnknownPolicy = errors.New("unknown policy")

// StaticFreq is the statically selected frequency of the "Static"
// baseline: the highest-saving setting that never violates the
// performance target across workloads (Section 4.1 picks 467 MHz).
const StaticFreq = config.Freq467

// DecoupledDevFreq is the DRAM device frequency of the Decoupled DIMMs
// baseline (channels stay at 800 MHz; Section 4.1 picks 400 MHz).
const DecoupledDevFreq = config.Freq400

// Spec describes one energy-management scheme.
type Spec struct {
	// Name as used in figures ("MemScale", "Fast-PD", ...).
	Name string

	// Description for documentation output.
	Description string

	// Configure mutates the system configuration (powerdown mode,
	// decoupled device frequency). May be nil.
	Configure func(*config.Config)

	// Governor builds the OS policy driving frequency decisions; nil
	// means the memory runs at whatever the configuration boots with.
	Governor func(cfg *config.Config, nonMemPower float64) sim.Governor

	// Speculative, when non-nil, builds the same governor as Governor
	// but takes the rest-of-system power from sp (see core.Speculation),
	// so the governor can start before that power is calibrated. Schemes
	// without it are handed the calibrated value up front.
	Speculative func(cfg *config.Config, sp *core.Speculation) sim.Governor
}

// Static is a trivial governor pinning one frequency.
type Static struct {
	Freq config.FreqMHz
}

// Name implements sim.Governor.
func (s Static) Name() string { return fmt.Sprintf("static-%d", int(s.Freq)) }

// ProfileComplete implements sim.Governor.
func (s Static) ProfileComplete(sim.Profile) config.FreqMHz { return s.Freq }

// EpochEnd implements sim.Governor.
func (s Static) EpochEnd(sim.Profile) {}

// Named specs, in the Figure 9/10/11 presentation order.
var (
	Baseline = Spec{
		Name:        "Baseline",
		Description: "memory subsystem always at nominal frequency, no powerdown",
	}
	FastPD = Spec{
		Name:        "Fast-PD",
		Description: "immediate fast-exit precharge powerdown when a rank's banks close",
		Configure:   func(c *config.Config) { c.Powerdown = config.PowerdownFast },
	}
	SlowPD = Spec{
		Name:        "Slow-PD",
		Description: "immediate slow-exit precharge powerdown (DLL off)",
		Configure:   func(c *config.Config) { c.Powerdown = config.PowerdownSlow },
	}
	Decoupled = Spec{
		Name:        "Decoupled",
		Description: "Decoupled DIMMs: channel at nominal, DRAM devices at a low static frequency",
		Configure:   func(c *config.Config) { c.DecoupledDevFreq = DecoupledDevFreq },
	}
	StaticBest = Spec{
		Name:        "Static",
		Description: "whole memory subsystem statically at the best fixed frequency",
		Governor: func(*config.Config, float64) sim.Governor {
			return Static{Freq: StaticFreq}
		},
		Speculative: func(*config.Config, *core.Speculation) sim.Governor {
			return Static{Freq: StaticFreq}
		},
	}
	MemScale = Spec{
		Name:        "MemScale",
		Description: "dynamic DVFS/DFS minimizing full-system energy under the CPI bound",
		Governor: func(cfg *config.Config, nonMem float64) sim.Governor {
			return core.NewPolicy(cfg, core.Options{NonMemPower: nonMem})
		},
		Speculative: func(cfg *config.Config, sp *core.Speculation) sim.Governor {
			return core.NewPolicy(cfg, core.Options{Speculation: sp})
		},
	}
	MemScaleMemEnergy = Spec{
		Name:        "MemScale (MemEnergy)",
		Description: "MemScale minimizing memory energy only",
		Governor: func(cfg *config.Config, nonMem float64) sim.Governor {
			return core.NewPolicy(cfg, core.Options{
				NonMemPower: nonMem,
				Objective:   core.MinimizeMemoryEnergy,
			})
		},
		Speculative: func(cfg *config.Config, sp *core.Speculation) sim.Governor {
			return core.NewPolicy(cfg, core.Options{
				Speculation: sp,
				Objective:   core.MinimizeMemoryEnergy,
			})
		},
	}
	MemScaleFastPD = Spec{
		Name:        "MemScale + Fast-PD",
		Description: "MemScale combined with fast-exit powerdown",
		Configure:   func(c *config.Config) { c.Powerdown = config.PowerdownFast },
		Governor: func(cfg *config.Config, nonMem float64) sim.Governor {
			return core.NewPolicy(cfg, core.Options{NonMemPower: nonMem})
		},
		Speculative: func(cfg *config.Config, sp *core.Speculation) sim.Governor {
			return core.NewPolicy(cfg, core.Options{Speculation: sp})
		},
	}
)

// All returns every scheme in presentation order.
func All() []Spec {
	return []Spec{
		Baseline, FastPD, SlowPD, Decoupled, StaticBest,
		MemScale, MemScaleMemEnergy, MemScaleFastPD,
	}
}

// Alternatives returns the Figure 9 comparison set (everything except
// the baseline).
func Alternatives() []Spec { return All()[1:] }

// ByName finds a scheme by its figure name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("policies: %w %q", ErrUnknownPolicy, name)
}

// Names lists the scheme names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}
