package memscale

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"memscale/internal/config"
	"memscale/internal/fleet"
	"memscale/internal/policies"
	"memscale/internal/workload"
)

// Fleet-scale simulation: N nodes, each a full paired MemScale run,
// driven by open-loop arrival processes and coordinated by a
// FastCap-style cluster power capper that redistributes a global
// memory-power budget every fleet epoch (DESIGN.md §4h).
//
//	sum, err := memscale.RunFleet(ctx, memscale.FleetConfig{
//		Groups: []memscale.NodeGroup{{
//			Name: "web", Nodes: 1000, Mix: "MID1",
//			Arrival: memscale.ArrivalConfig{Kind: memscale.ArrivalDiurnal},
//		}},
//		PowerBudgetW: 20_000,
//	})
//	fmt.Printf("fleet SER %.3f, p99 CPI +%.1f%%\n", sum.SER, sum.P99CPIIncrease*100)

// ArrivalKind names an open-loop arrival process shape; ArrivalConfig
// configures one node group's process. See the kind constants for the
// semantics of each shape.
type (
	ArrivalKind   = fleet.ArrivalKind
	ArrivalConfig = fleet.ArrivalSpec
)

// The supported arrival processes.
const (
	// ArrivalSteady offers exactly the nominal load every epoch
	// (intensity multiplier 1.0 — bit-identical to an undriven node).
	ArrivalSteady = fleet.ArrivalSteady

	// ArrivalPoisson draws each epoch's request count from a Poisson
	// process at UsersPerNode x RequestsPerUserHz.
	ArrivalPoisson = fleet.ArrivalPoisson

	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// nodes flip between the nominal rate and BurstFactor times it.
	ArrivalBursty = fleet.ArrivalBursty

	// ArrivalDiurnal modulates the Poisson rate by a sinusoid with a
	// deterministic per-node phase offset.
	ArrivalDiurnal = fleet.ArrivalDiurnal
)

// FleetSummary is the fleet-level outcome: cluster SER, tail CPI
// degradation across nodes, energy and power totals, the coordinator's
// per-epoch cap-convergence trace, per-group rollups, and per-node
// summaries. FleetCapStep, FleetGroupSummary, and FleetNodeSummary are
// its components.
type (
	FleetSummary      = fleet.Summary
	FleetCapStep      = fleet.CapStep
	FleetGroupSummary = fleet.GroupSummary
	FleetNodeSummary  = fleet.NodeSummary
)

// NodeGroup describes one homogeneous slice of the fleet: Nodes
// servers all running the same workload mix under the same policy and
// arrival process.
type NodeGroup struct {
	// Name labels the group in summaries and CSVs (defaults to the
	// group's index).
	Name string

	// Nodes is the group's server count (must be positive).
	Nodes int

	// Mix is a Table 1 workload name; Policy a scheme name as listed
	// by Policies() (default "MemScale"). Every node of the group runs
	// this pair, with per-node decorrelated traces.
	Mix    string
	Policy string

	// Gamma, Cores, Channels scale each node exactly like the
	// RunConfig fields of the same names (zero selects the defaults:
	// 0.10, 16, 4).
	Gamma    float64
	Cores    int
	Channels int

	// Arrival is the group's open-loop arrival process. The zero value
	// offers a steady nominal load.
	Arrival ArrivalConfig
}

// FleetConfig drives one fleet run.
type FleetConfig struct {
	// Groups partitions the fleet. At least one group is required.
	Groups []NodeGroup

	// Epochs is the horizon in 5 ms OS epochs per node (default 10),
	// at most sim.MaxEpochs for each group's channel count (22,906 on
	// the default four channels); Validate rejects longer horizons.
	Epochs int

	// PowerBudgetW is the global memory-power budget in watts shared
	// by the whole fleet. Each fleet epoch the coordinator
	// redistributes it across nodes as per-node frequency caps
	// (FastCap-style fair assignment); 0 disables cluster capping and
	// every node runs pure MemScale.
	PowerBudgetW float64

	// CapIntervalEpochs is the coordinator period in OS epochs
	// (default 1: caps are reassigned at every epoch boundary).
	CapIntervalEpochs int

	// Seed decorrelates traces and arrivals across nodes while keeping the whole fleet reproducible: the same
	// FleetConfig yields a bit-identical FleetSummary on any worker
	// count.
	Seed uint64

	// Workers bounds node-level parallelism (0 = GOMAXPROCS).
	Workers int
}

// Validate rejects a degenerate fleet configuration up front. Like
// RunConfig.Validate, every failure wraps ErrInvalidConfig and names
// the offending field with a path (e.g. "groups[2].nodes",
// "groups[0].arrival.burst_probability"); unknown mix and policy names
// additionally match ErrUnknownMix / ErrUnknownPolicy.
func (fc FleetConfig) Validate() error {
	switch {
	case len(fc.Groups) == 0:
		return fmt.Errorf("%w: groups: at least one node group is required", ErrInvalidConfig)
	case fc.Epochs < 0:
		return fmt.Errorf("%w: epochs: must be >= 0 (0 selects the default 10), got %d",
			ErrInvalidConfig, fc.Epochs)
	case math.IsNaN(fc.PowerBudgetW) || math.IsInf(fc.PowerBudgetW, 0) || fc.PowerBudgetW < 0:
		return fmt.Errorf("%w: power_budget_w: must be finite and >= 0 (0 disables capping), got %g",
			ErrInvalidConfig, fc.PowerBudgetW)
	case fc.CapIntervalEpochs < 0:
		return fmt.Errorf("%w: cap_interval_epochs: must be >= 0 (0 selects the default 1), got %d",
			ErrInvalidConfig, fc.CapIntervalEpochs)
	}
	for gi, g := range fc.Groups {
		if g.Nodes <= 0 {
			return fmt.Errorf("%w: groups[%d].nodes: must be positive, got %d",
				ErrInvalidConfig, gi, g.Nodes)
		}
		if _, err := workload.ByName(g.Mix); err != nil {
			return fmt.Errorf("%w: groups[%d].mix: %w", ErrInvalidConfig, gi, err)
		}
		policy := g.Policy
		if policy == "" {
			policy = "MemScale"
		}
		if _, err := policies.ByName(policy); err != nil {
			return fmt.Errorf("%w: groups[%d].policy: %w", ErrInvalidConfig, gi, err)
		}
		switch {
		case math.IsNaN(g.Gamma) || g.Gamma < 0 || g.Gamma >= 1:
			return fmt.Errorf("%w: groups[%d].gamma: must be in [0, 1), got %g",
				ErrInvalidConfig, gi, g.Gamma)
		case g.Cores < 0:
			return fmt.Errorf("%w: groups[%d].cores: must be >= 0, got %d",
				ErrInvalidConfig, gi, g.Cores)
		case g.Channels < 0:
			return fmt.Errorf("%w: groups[%d].channels: must be >= 0, got %d",
				ErrInvalidConfig, gi, g.Channels)
		}
		cfg := config.Default()
		if g.Channels > 0 {
			cfg.Channels = g.Channels
		}
		if err := checkRunLength("epochs", fc.Epochs, &cfg); err != nil {
			return err
		}
		if err := g.Arrival.Validate(); err != nil {
			return fmt.Errorf("%w: groups[%d].arrival: %v", ErrInvalidConfig, gi, err)
		}
	}
	return nil
}

// internal resolves the validated public configuration into the fleet
// engine's own config type.
func (fc FleetConfig) internal() (fleet.Config, error) {
	c := fleet.Config{
		Epochs:   fc.Epochs,
		BudgetW:  fc.PowerBudgetW,
		CapEvery: fc.CapIntervalEpochs,
		Seed:     fc.Seed,
		Workers:  fc.Workers,
	}
	for gi, g := range fc.Groups {
		mix, err := workload.ByName(g.Mix)
		if err != nil {
			return fleet.Config{}, fmt.Errorf("groups[%d].mix: %w", gi, err)
		}
		policy := g.Policy
		if policy == "" {
			policy = "MemScale"
		}
		spec, err := policies.ByName(policy)
		if err != nil {
			return fleet.Config{}, fmt.Errorf("groups[%d].policy: %w", gi, err)
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("group%d", gi)
		}
		c.Groups = append(c.Groups, fleet.GroupSpec{
			Name: name, Nodes: g.Nodes,
			Mix: mix, Spec: spec,
			Gamma: g.Gamma, Cores: g.Cores, Channels: g.Channels,
			Arrival: g.Arrival,
		})
	}
	return c, nil
}

// RunFleet simulates the fleet under ctx: per-node paired baselines,
// then the managed runs stepped in lockstep fleet epochs with the
// cluster coordinator redistributing PowerBudgetW between steps.
//
// Deterministic: the same FleetConfig yields a bit-identical
// FleetSummary on any Workers count — parallelism is across nodes
// only, every reduction runs in node order, and the coordinator is
// serial. Node failures (a panicking governor, a simulation error)
// kill only that node: survivors' statistics are still reported and the dead
// nodes' errors come back joined alongside the valid summary,
// mirroring Sweep's partial-failure contract.
func RunFleet(ctx context.Context, fc FleetConfig) (FleetSummary, error) {
	return RunFleetInterruptible(ctx, fc, nil)
}

// RunFleetInterruptible is RunFleet with a soft-stop signal: when stop
// fires (a closed or signaled channel — wire it to SIGINT/SIGTERM in a
// CLI), the fleet finishes its current lockstep window and reports
// ErrInterrupted alongside the partial summary (Interrupted set,
// EpochsCompleted counting the finished window boundary). A stop
// during the baselines cancels them; the summary then covers no
// epochs. The partial
// summary pairs each node's completed epochs with the same epochs of
// its baseline, so its SER and CPI figures describe those epochs. A
// run that completes without interruption behaves exactly like
// RunFleet.
func RunFleetInterruptible(ctx context.Context, fc FleetConfig, stop <-chan struct{}) (FleetSummary, error) {
	if err := fc.Validate(); err != nil {
		return FleetSummary{}, err
	}
	c, err := fc.internal()
	if err != nil {
		return FleetSummary{}, err
	}
	c.Interrupt = stop
	return fleet.Run(ctx, c)
}

// FleetSchemaVersion is the fleet-summary interchange format version
// ("MAJOR.MINOR") WriteFleetSummary stamps on every summary. Minor
// bumps add fields, which older readers ignore, or drop omitempty
// ones, which newer readers ignore (1.3 dropped the self-healing
// fields); a major bump means the summary shape changed
// incompatibly. ReadFleetSummary therefore accepts any summary whose
// major version matches its own (including unversioned pre-1.1
// summaries, which read as "1.0") and rejects the rest with a
// *FleetSchemaVersionError.
const FleetSchemaVersion = fleet.SchemaVersion

// FleetSchemaVersionError is the typed error ReadFleetSummary returns
// for a summary written by an incompatible (different-major) schema
// version; match it with errors.As.
type FleetSchemaVersionError = fleet.SchemaVersionError

// WriteFleetSummary writes the summary as indented JSON — the
// interchange form cmd/memscale-report reads back with -fleet — with
// the current FleetSchemaVersion stamped on it.
func WriteFleetSummary(w io.Writer, sum FleetSummary) error {
	sum.SchemaVersion = FleetSchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}

// ReadFleetSummary parses a JSON fleet summary written by
// WriteFleetSummary (or cmd/memscale-fleet's -json flag). Summaries
// from an incompatible schema major version fail with a
// *FleetSchemaVersionError (see FleetSchemaVersion).
func ReadFleetSummary(r io.Reader) (FleetSummary, error) {
	var sum FleetSummary
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sum); err != nil {
		return FleetSummary{}, fmt.Errorf("fleet summary: %w", err)
	}
	if err := fleet.CheckSchemaVersion(sum.SchemaVersion); err != nil {
		return FleetSummary{}, fmt.Errorf("fleet summary: %w", err)
	}
	return sum, nil
}

// WriteFleetNodesCSV writes the per-node outcome table: one row per
// node with its group, paired energy/SER/CPI metrics, arrival
// intensity, and final frequency cap.
func WriteFleetNodesCSV(w io.Writer, sum FleetSummary) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"node", "group", "memory_energy_j", "system_energy_j",
		"baseline_system_energy_j", "ser", "cpi_increase",
		"mean_intensity", "capped_epochs", "final_cap_mhz", "dead",
	}); err != nil {
		return err
	}
	for _, n := range sum.PerNode {
		if err := cw.Write([]string{
			strconv.Itoa(n.Node), n.Group,
			ftoa(n.MemoryEnergyJ), ftoa(n.SystemEnergyJ), ftoa(n.BaselineSysJ),
			ftoa(n.SER), ftoa(n.CPIIncrease), ftoa(n.MeanIntensity),
			strconv.Itoa(n.CappedEpochs), strconv.Itoa(n.FinalCapMHz),
			strconv.FormatBool(n.Dead),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFleetCapsCSV writes the coordinator's cap-convergence trace:
// one row per fleet epoch with the budget, measured and estimated
// fleet power, the water-filled uniform level, and the churn counters
// the convergence criterion is defined over.
func WriteFleetCapsCSV(w io.Writer, sum FleetSummary) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"epoch", "budget_w", "measured_w", "estimated_w", "deficit_w",
		"uniform_mhz", "promotions", "constrained", "cap_changes",
	}); err != nil {
		return err
	}
	for _, s := range sum.CapTrace {
		if err := cw.Write([]string{
			strconv.Itoa(s.Epoch),
			ftoa(s.BudgetW), ftoa(s.MeasuredW), ftoa(s.EstimatedW), ftoa(s.DeficitW),
			strconv.Itoa(s.UniformMHz), strconv.Itoa(s.Promotions),
			strconv.Itoa(s.Constrained), strconv.Itoa(s.CapChanges),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
