// Package faults is the simulator's deterministic fault-injection
// plane. It models the hardware disturbances the paper's machinery is
// most exposed to — retention emergencies forcing extra all-bank
// refreshes, transient PLL/DLL relock failures at the memory
// controller, corruption of the profiled performance counters, and
// thermal-emergency windows that cap the selectable frequency ceiling
// — plus two run-level disturbances for hardening the execution
// pipeline: transient run aborts (retryable) and injected panics.
//
// Determinism is the load-bearing property: every decision is a pure
// function of (seed, epoch, fault class), drawn through an
// order-independent hash, so the same seed reproduces the exact same
// disturbance schedule regardless of how (or how often) the plan is
// queried, which worker ran the job, or whether earlier attempts were
// retried. Epoch plans do not depend on the attempt number; only the
// transient-abort draw does, so a retried run replays the identical
// hardware fault schedule once it gets past the abort.
//
// The package sits low in the import graph (config and trace only) so
// the simulator, the governor, and the runner can all consume it.
package faults

import (
	"errors"
	"fmt"
	"math"

	"memscale/internal/config"
	"memscale/internal/trace"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrTransient marks a run abort injected by the fault plane. It
	// is the one retryable failure class: the runner re-attempts the
	// job, and the retry draws its abort decision independently.
	ErrTransient = errors.New("injected transient fault")

	// ErrInvalidConfig reports a fault configuration with out-of-range
	// rates or an off-ladder thermal ceiling.
	ErrInvalidConfig = errors.New("invalid fault configuration")
)

// InjectedPanic is the value an injected panic carries, so the
// runner's recovery layer (and tests) can tell a deliberate
// fault-plane panic from a genuine bug.
type InjectedPanic struct {
	Epoch int
}

// String renders the panic value.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at epoch %d", p.Epoch)
}

// Kind is a bitmask of fault classes. A degraded epoch carries the
// union of the classes that disturbed it.
type Kind uint8

// Fault classes.
const (
	// KindRefreshStorm: a retention emergency forced extra all-bank
	// refresh rounds during the epoch.
	KindRefreshStorm Kind = 1 << iota

	// KindRelock: a bus-frequency relock needed retries; when every
	// bounded retry failed the switch was abandoned for the epoch.
	KindRelock

	// KindCounterCorruption: the profiling window's MC counters were
	// perturbed or dropped and could not be trusted.
	KindCounterCorruption

	// KindThermal: a thermal-emergency window capped the candidate
	// frequency ceiling.
	KindThermal

	// KindTransient: the run aborted with ErrTransient.
	KindTransient

	// KindPanic: the run was killed by an injected panic.
	KindPanic
)

var kindNames = []struct {
	k    Kind
	name string
}{
	{KindRefreshStorm, "refresh_storm"},
	{KindRelock, "relock_failure"},
	{KindCounterCorruption, "counter_corruption"},
	{KindThermal, "thermal_emergency"},
	{KindTransient, "transient_abort"},
	{KindPanic, "injected_panic"},
}

// String renders the mask as a "+"-joined list of class names.
func (k Kind) String() string {
	if k == 0 {
		return "none"
	}
	out := ""
	for _, kn := range kindNames {
		if k&kn.k != 0 {
			if out != "" {
				out += "+"
			}
			out += kn.name
		}
	}
	return out
}

// Counts tallies the faults a run actually applied, per class, plus
// the epochs marked degraded because of them. It travels on the
// simulation result so callers can reconcile it against the telemetry
// event stream.
type Counts struct {
	RefreshStorms      uint64 `json:"refresh_storms,omitempty"`
	RelockFaults       uint64 `json:"relock_faults,omitempty"`
	RelockAbandoned    uint64 `json:"relock_abandoned,omitempty"`
	CounterCorruptions uint64 `json:"counter_corruptions,omitempty"`
	ThermalEpochs      uint64 `json:"thermal_epochs,omitempty"`
	TransientAborts    uint64 `json:"transient_aborts,omitempty"`
	InjectedPanics     uint64 `json:"injected_panics,omitempty"`
	DegradedEpochs     uint64 `json:"degraded_epochs,omitempty"`
}

// Total returns the number of injected fault instances. Each instance
// corresponds to exactly one telemetry fault event: a refresh storm, a
// disturbed relock (however many retries it took), a corrupted
// profile, one thermal epoch, one transient abort, or one panic.
// RelockAbandoned is a subset of RelockFaults and DegradedEpochs is a
// consequence, so neither contributes separately.
func (c Counts) Total() uint64 {
	return c.RefreshStorms + c.RelockFaults + c.CounterCorruptions +
		c.ThermalEpochs + c.TransientAborts + c.InjectedPanics
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.RefreshStorms += o.RefreshStorms
	c.RelockFaults += o.RelockFaults
	c.RelockAbandoned += o.RelockAbandoned
	c.CounterCorruptions += o.CounterCorruptions
	c.ThermalEpochs += o.ThermalEpochs
	c.TransientAborts += o.TransientAborts
	c.InjectedPanics += o.InjectedPanics
	c.DegradedEpochs += o.DegradedEpochs
}

// Map returns the non-zero counts keyed by stable wire names, or nil
// when nothing was injected.
func (c Counts) Map() map[string]uint64 {
	out := map[string]uint64{}
	put := func(name string, n uint64) {
		if n > 0 {
			out[name] = n
		}
	}
	put("refresh_storm", c.RefreshStorms)
	put("relock_failure", c.RelockFaults)
	put("relock_abandoned", c.RelockAbandoned)
	put("counter_corruption", c.CounterCorruptions)
	put("thermal_emergency", c.ThermalEpochs)
	put("transient_abort", c.TransientAborts)
	put("injected_panic", c.InjectedPanics)
	put("degraded_epochs", c.DegradedEpochs)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Config describes the disturbance schedule of one run. Rates are
// per-epoch (or per-attempt for TransientAbortRate) probabilities in
// [0, 1]; zero disables the class. The zero Config injects nothing.
type Config struct {
	// Seed selects the deterministic schedule. Two runs with equal
	// Config produce identical fault sequences.
	Seed uint64

	// RefreshStormRate is the per-epoch probability of a retention
	// emergency; RefreshStormBursts extra all-bank refresh rounds are
	// issued back to back when one fires (default 2).
	RefreshStormRate   float64
	RefreshStormBursts int

	// RelockFailRate is the probability each PLL/DLL relock attempt
	// fails. Failed attempts are retried with exponential backoff up
	// to RelockMaxRetries (default 3) extra attempts; if every attempt
	// fails the switch is abandoned for the epoch and the bus stays at
	// its old frequency. RelockBackoff is the base backoff inserted
	// between attempts (default 100 ns), doubling per retry.
	RelockFailRate   float64
	RelockMaxRetries int
	RelockBackoff    config.Time

	// CounterCorruptRate is the per-epoch probability the profiling
	// window's MC counters are corrupted. The governor re-profiles; if
	// the re-profile draw is corrupted too, it falls back to the
	// maximum allowed frequency for the epoch.
	CounterCorruptRate float64

	// ThermalRate is the per-epoch probability a thermal-emergency
	// window opens; while one is active (ThermalWindowEpochs epochs,
	// default 2) the candidate frequency ceiling is capped at
	// ThermalCeiling (default 400 MHz, must be on the ladder).
	ThermalRate         float64
	ThermalCeiling      config.FreqMHz
	ThermalWindowEpochs int

	// TransientAbortRate is the per-attempt probability the run aborts
	// with ErrTransient at its first epoch boundary. Aborted attempts
	// are retried up to MaxRunRetries times (default 2).
	TransientAbortRate float64
	MaxRunRetries      int

	// PanicEpoch, when PanicEnabled, panics the run deliberately at
	// that epoch index — the hook pipeline-hardening tests use to
	// prove one job's death cannot take down a sweep.
	PanicEnabled bool
	PanicEpoch   int
}

// Default fallbacks for zero Config fields.
const (
	DefaultRefreshStormBursts  = 2
	DefaultRelockMaxRetries    = 3
	DefaultRelockBackoff       = 100 * config.Nanosecond
	DefaultThermalCeiling      = config.Freq400
	DefaultThermalWindowEpochs = 2
	DefaultMaxRunRetries       = 2
)

// WithDefaults fills the documented defaults into zero fields.
func (c Config) WithDefaults() Config {
	if c.RefreshStormBursts == 0 {
		c.RefreshStormBursts = DefaultRefreshStormBursts
	}
	if c.RelockMaxRetries == 0 {
		c.RelockMaxRetries = DefaultRelockMaxRetries
	}
	if c.RelockBackoff == 0 {
		c.RelockBackoff = DefaultRelockBackoff
	}
	if c.ThermalCeiling == 0 {
		c.ThermalCeiling = DefaultThermalCeiling
	}
	if c.ThermalWindowEpochs == 0 {
		c.ThermalWindowEpochs = DefaultThermalWindowEpochs
	}
	if c.MaxRunRetries == 0 {
		c.MaxRunRetries = DefaultMaxRunRetries
	}
	return c
}

// rate validates one probability field.
func rate(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%w: %s must be in [0, 1], got %g", ErrInvalidConfig, name, v)
	}
	return nil
}

// Validate rejects degenerate fault configurations. Zero values are
// allowed everywhere (they select defaults or disable a class).
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"RefreshStormRate", c.RefreshStormRate},
		{"RelockFailRate", c.RelockFailRate},
		{"CounterCorruptRate", c.CounterCorruptRate},
		{"ThermalRate", c.ThermalRate},
		{"TransientAbortRate", c.TransientAbortRate},
	} {
		if err := rate(r.name, r.v); err != nil {
			return err
		}
	}
	switch {
	case c.RefreshStormBursts < 0:
		return fmt.Errorf("%w: RefreshStormBursts must be >= 0, got %d", ErrInvalidConfig, c.RefreshStormBursts)
	case c.RelockMaxRetries < 0:
		return fmt.Errorf("%w: RelockMaxRetries must be >= 0, got %d", ErrInvalidConfig, c.RelockMaxRetries)
	case c.RelockBackoff < 0:
		return fmt.Errorf("%w: RelockBackoff must be >= 0, got %v", ErrInvalidConfig, c.RelockBackoff)
	case c.ThermalCeiling != 0 && !config.ValidBusFrequency(c.ThermalCeiling):
		return fmt.Errorf("%w: ThermalCeiling %v is not on the frequency ladder", ErrInvalidConfig, c.ThermalCeiling)
	case c.ThermalWindowEpochs < 0:
		return fmt.Errorf("%w: ThermalWindowEpochs must be >= 0, got %d", ErrInvalidConfig, c.ThermalWindowEpochs)
	case c.MaxRunRetries < 0:
		return fmt.Errorf("%w: MaxRunRetries must be >= 0, got %d", ErrInvalidConfig, c.MaxRunRetries)
	case c.PanicEnabled && c.PanicEpoch < 0:
		return fmt.Errorf("%w: PanicEpoch must be >= 0, got %d", ErrInvalidConfig, c.PanicEpoch)
	}
	return nil
}

// Plan is the disturbance schedule of one epoch, fully determined by
// (seed, epoch) — querying it twice, in any order, yields identical
// plans. Fields describe what the fault plane wants to inject; the
// simulator applies (and counts) only the ones that are meaningful for
// the run, e.g. relock failures only disturb epochs where the governor
// actually changes frequency.
type Plan struct {
	// Storm: issue StormBursts extra all-bank refresh rounds.
	Storm       bool
	StormBursts int

	// CorruptProfile: the profiling window's counters are untrusted;
	// CorruptReprofile: the re-profile is corrupted too, so no trusted
	// profile exists this epoch.
	CorruptProfile   bool
	CorruptReprofile bool

	// RelockFailures is how many relock attempts fail before one
	// succeeds this epoch (0 = clean relock); RelockAbandoned means
	// every bounded retry failed and the switch must be abandoned.
	RelockFailures  int
	RelockAbandoned bool

	// ThermalCeiling caps the candidate frequency ladder when a
	// thermal window covers this epoch; zero means no cap.
	ThermalCeiling config.FreqMHz

	// Panic: die deliberately at this epoch's start.
	Panic bool

	// Abort: fail the attempt with ErrTransient at this epoch's start.
	Abort bool
}

// Injector produces deterministic fault plans for one run attempt.
// A nil *Injector is the disabled state: EpochPlan returns the zero
// Plan. The injector is stateless beyond its configuration, so it is
// safe to share across goroutines (the simulator nevertheless owns one
// per run).
type Injector struct {
	cfg     Config
	attempt int
}

// Draw salts, one per independent decision stream.
const (
	saltStorm uint64 = iota + 1
	saltCorrupt
	saltReprofile
	saltRelock // + attempt index
	saltThermal
	saltTransient
)

// New builds an injector for one run attempt. The attempt index feeds
// only the transient-abort draw: hardware fault schedules are
// attempt-independent, so a retried run replays the same disturbances.
func New(c Config, attempt int) (*Injector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if attempt < 0 {
		attempt = 0
	}
	return &Injector{cfg: c.WithDefaults(), attempt: attempt}, nil
}

// Config returns the injector's defaulted configuration. Safe on nil
// (returns the zero Config).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// draw returns a uniform [0,1) value for (seed, salt, index),
// independent of call order.
func (in *Injector) draw(salt, index uint64) float64 {
	const mix1 = 0x9e3779b97f4a7c15
	const mix2 = 0xd1b54a32d192ed03
	state := in.cfg.Seed ^ (salt+1)*mix1 ^ (index+1)*mix2
	return trace.NewRNG(state).Float64()
}

// EpochPlan returns the disturbance schedule of one epoch. Safe on
// nil (returns the zero Plan).
func (in *Injector) EpochPlan(epoch int) Plan {
	if in == nil || epoch < 0 {
		return Plan{}
	}
	c := in.cfg
	e := uint64(epoch)
	var p Plan

	if c.PanicEnabled && epoch == c.PanicEpoch {
		p.Panic = true
	}
	if c.TransientAbortRate > 0 && epoch == 0 &&
		in.draw(saltTransient, uint64(in.attempt)) < c.TransientAbortRate {
		p.Abort = true
	}
	if c.RefreshStormRate > 0 && in.draw(saltStorm, e) < c.RefreshStormRate {
		p.Storm = true
		p.StormBursts = c.RefreshStormBursts
	}
	if c.CounterCorruptRate > 0 && in.draw(saltCorrupt, e) < c.CounterCorruptRate {
		p.CorruptProfile = true
		p.CorruptReprofile = in.draw(saltReprofile, e) < c.CounterCorruptRate
	}
	if c.RelockFailRate > 0 {
		// Attempt 0 plus up to RelockMaxRetries retries; each attempt
		// draws independently so the failure streak length is
		// geometric, bounded by abandonment.
		attempts := 1 + c.RelockMaxRetries
		for a := 0; a < attempts; a++ {
			if in.draw(saltRelock+uint64(a)*7, e) >= c.RelockFailRate {
				break
			}
			p.RelockFailures++
		}
		p.RelockAbandoned = p.RelockFailures == attempts
	}
	if c.ThermalRate > 0 {
		// A window opened at epoch w covers [w, w+ThermalWindowEpochs).
		// Checking the last ThermalWindowEpochs draws keeps the plan a
		// pure function of (seed, epoch) with no mutable window state.
		for w := epoch; w > epoch-c.ThermalWindowEpochs && w >= 0; w-- {
			if in.draw(saltThermal, uint64(w)) < c.ThermalRate {
				p.ThermalCeiling = c.ThermalCeiling
				break
			}
		}
	}
	return p
}

// RelockStall converts one epoch's relock failure count into the
// total halt the channels absorb: each failed attempt costs the full
// relock penalty plus an exponentially growing backoff, and a
// successful final attempt costs one more penalty. An abandoned relock
// stalls for the failed attempts only — the old frequency stays.
func (in *Injector) RelockStall(penalty config.Time, failures int, abandoned bool) config.Time {
	if in == nil || failures <= 0 {
		if abandoned {
			return 0
		}
		return penalty
	}
	stall := config.Time(0)
	backoff := in.cfg.RelockBackoff
	for i := 0; i < failures; i++ {
		stall += penalty + backoff
		backoff *= 2
	}
	if !abandoned {
		stall += penalty
	}
	return stall
}
