package memscale

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"memscale/internal/fleet"
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

// FleetConfig drives one fleet run; NodeGroup describes one
// homogeneous slice of the fleet; ArrivalConfig names a group's
// open-loop arrival process, whose shape ArrivalKind selects. See the
// field documentation of the fleet package's Config, NodeGroup and
// ArrivalConfig. FleetConfig.Validate rejects a degenerate
// configuration up front: like RunConfig.Validate, every failure wraps
// ErrInvalidConfig and names the offending field with a path (e.g.
// "groups[2].nodes", "groups[0].arrival"); unknown mix and policy
// names additionally match ErrUnknownMix / ErrUnknownPolicy.
type (
	FleetConfig   = fleet.Config
	NodeGroup     = fleet.NodeGroup
	ArrivalConfig = fleet.ArrivalConfig
	ArrivalKind   = fleet.ArrivalKind
)

// The supported arrival processes. Their parameters are fixed: a
// nominal load of 1000 users x 20 req/s per node (DESIGN.md §4h).
const (
	// ArrivalSteady offers exactly the nominal load every epoch
	// (intensity multiplier 1.0 — bit-identical to an undriven node).
	ArrivalSteady = fleet.ArrivalSteady

	// ArrivalPoisson draws each epoch's request count from a Poisson
	// process at the nominal rate.
	ArrivalPoisson = fleet.ArrivalPoisson

	// ArrivalBursty is a two-state Markov-modulated Poisson process:
	// nodes flip between the nominal rate and 4x it, entering a burst
	// with probability 0.05 per epoch and staying 5 epochs on average.
	ArrivalBursty = fleet.ArrivalBursty

	// ArrivalDiurnal modulates the Poisson rate by a sinusoid of
	// relative amplitude 0.6 over the fleet horizon, with a
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
//
// When fc.Interrupt fires (a closed or signaled channel — wire it to
// SIGINT/SIGTERM in a CLI), the fleet finishes its current lockstep
// window and reports ErrInterrupted alongside the partial summary
// (Interrupted set, EpochsCompleted counting the finished window
// boundary). A stop during the baselines cancels them; the summary
// then covers no epochs. The partial summary pairs each node's
// completed epochs with the same epochs of its baseline, so its SER
// and CPI figures describe those epochs.
func RunFleet(ctx context.Context, fc FleetConfig) (FleetSummary, error) {
	return fleet.Run(ctx, fc)
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
