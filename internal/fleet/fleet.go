package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/invariant"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// NodeGroup describes one homogeneous slice of the fleet: Nodes
// servers all running the same workload mix under the same policy and
// arrival process.
type NodeGroup struct {
	// Name labels the group in summaries and CSVs (default "group<i>",
	// after the group's index).
	Name string

	// Nodes is the group's server count (must be positive).
	Nodes int

	// Mix is a Table 1 workload name; Policy a scheme name as listed
	// by the public Policies() (default "MemScale"). Every node of the
	// group runs this pair, with per-node decorrelated traces.
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

// Config drives one fleet run.
type Config struct {
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

	// Seed decorrelates traces and arrivals across nodes while keeping
	// the whole fleet reproducible: the same Config yields a
	// bit-identical Summary on any worker count.
	Seed uint64

	// Workers bounds node-level parallelism (0 = GOMAXPROCS).
	Workers int

	// Interrupt, when non-nil, requests a soft stop (wire it to
	// SIGINT/SIGTERM in a CLI): the run halts at the next window
	// boundary and returns ErrInterrupted with a summary of the
	// completed epochs. A stop during the baselines cancels the ones
	// still running, and the summary covers no epochs. Nil means run to
	// completion.
	Interrupt <-chan struct{}
}

// Validate rejects a degenerate fleet configuration up front. Every
// failure wraps runner.ErrInvalidConfig and names the offending field
// with a path (e.g. "groups[2].nodes", "groups[0].arrival"); unknown
// mix and policy names additionally match workload.ErrUnknownMix and
// policies.ErrUnknownPolicy. Run performs the same checks.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// group is one NodeGroup validated and resolved: its name defaulted,
// its mix and policy looked up, its machine configuration built.
type group struct {
	name    string
	nodes   int
	mix     workload.Mix
	spec    policies.Spec
	cfg     config.Config
	arrival ArrivalKind
}

// resolve validates c and resolves every group, in one pass.
func (c Config) resolve() ([]group, error) {
	switch {
	case len(c.Groups) == 0:
		return nil, fmt.Errorf("%w: groups: at least one node group is required", runner.ErrInvalidConfig)
	case math.IsNaN(c.PowerBudgetW) || math.IsInf(c.PowerBudgetW, 0) || c.PowerBudgetW < 0:
		return nil, fmt.Errorf("%w: power_budget_w: must be finite and >= 0 (0 disables capping), got %g",
			runner.ErrInvalidConfig, c.PowerBudgetW)
	case c.CapIntervalEpochs < 0:
		return nil, fmt.Errorf("%w: cap_interval_epochs: must be >= 0 (0 selects the default 1), got %d",
			runner.ErrInvalidConfig, c.CapIntervalEpochs)
	}
	groups := make([]group, len(c.Groups))
	for gi, g := range c.Groups {
		path := fmt.Sprintf("groups[%d]", gi)
		if g.Nodes <= 0 {
			return nil, fmt.Errorf("%w: %s.nodes: must be positive, got %d",
				runner.ErrInvalidConfig, path, g.Nodes)
		}
		mix, err := workload.ByName(g.Mix)
		if err != nil {
			return nil, fmt.Errorf("%w: %s.mix: %w", runner.ErrInvalidConfig, path, err)
		}
		spec, err := policies.ByName(cmp.Or(g.Policy, policies.MemScale.Name))
		if err != nil {
			return nil, fmt.Errorf("%w: %s.policy: %w", runner.ErrInvalidConfig, path, err)
		}
		cfg, err := runner.Machine(path, c.Epochs, g.Gamma, g.Cores, g.Channels)
		if err != nil {
			return nil, err
		}
		arrival, err := g.Arrival.kind()
		if err != nil {
			return nil, fmt.Errorf("%w: %s.arrival: %v", runner.ErrInvalidConfig, path, err)
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("group%d", gi)
		}
		groups[gi] = group{name: name, nodes: g.Nodes, mix: mix, spec: spec, cfg: cfg, arrival: arrival}
	}
	return groups, nil
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.CapIntervalEpochs == 0 {
		c.CapIntervalEpochs = 1
	}
	return c
}

// NodeSummary is one node's paired outcome.
type NodeSummary struct {
	Node  int    `json:"node"`
	Group string `json:"group"`

	MemoryEnergyJ float64 `json:"memory_energy_j"`
	SystemEnergyJ float64 `json:"system_energy_j"`
	BaselineSysJ  float64 `json:"baseline_system_energy_j"`
	SER           float64 `json:"ser"`
	CPIIncrease   float64 `json:"cpi_increase"`
	MeanIntensity float64 `json:"mean_intensity"`
	CappedEpochs  int     `json:"capped_epochs"`
	FinalCapMHz   int     `json:"final_cap_mhz"`
	Dead          bool    `json:"dead,omitempty"`
	Err           string  `json:"error,omitempty"`
}

// GroupSummary rolls one group up.
type GroupSummary struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`

	SER            float64 `json:"ser"`
	AvgCPIIncrease float64 `json:"avg_cpi_increase"`
	P99CPIIncrease float64 `json:"p99_cpi_increase"`

	// Rollup aggregates the group's per-node telemetry (totals,
	// frequency residency) through the standard rollup machinery.
	Rollup *telemetry.Rollup `json:"rollup,omitempty"`
}

// SchemaVersion is the fleet-summary interchange format version
// ("MAJOR.MINOR") stamped on every summary WriteFleetSummary encodes.
// Minor bumps add fields, which older readers ignore, or drop
// omitempty ones, which newer readers ignore; a major bump means the
// summary shape changed incompatibly. Readers accept any summary
// whose major version matches their own (including unversioned
// pre-1.1 summaries, which read as "1.0") and reject the rest with a
// *SchemaVersionError.
//
// 1.2 added invariant check counts, interruption, and the
// self-healing plane's fields. 1.3 removed those self-healing fields
// (per-node attempts, crashes, recovery epochs, corrupt checkpoints,
// loss windows and lost flag; the lost and degraded node sets). All
// were omitempty, so a 1.2 summary still reads: its extra keys are
// ignored. Recoveries stays in the shape and is always 0.
const SchemaVersion = "1.3"

// SchemaVersionError reports a fleet summary written by an
// incompatible (different-major) schema version; match with errors.As.
type SchemaVersionError struct {
	Version string // the summary's schema_version
}

// Error implements error.
func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("fleet summary schema version %q is incompatible with reader version %q",
		e.Version, SchemaVersion)
}

// CheckSchemaVersion validates a summary's recorded version against
// this reader. An empty version is a pre-1.1 summary and reads as
// "1.0" — same major, accepted.
func CheckSchemaVersion(version string) error {
	if version == "" {
		return nil
	}
	if major(version) != major(SchemaVersion) {
		return &SchemaVersionError{Version: version}
	}
	return nil
}

// major returns the MAJOR component of a version string; the whole
// string when there is no dot.
func major(v string) string {
	if i := strings.IndexByte(v, '.'); i >= 0 {
		return v[:i]
	}
	return v
}

// Summary is the fleet-level outcome.
type Summary struct {
	// SchemaVersion records the interchange format version the summary
	// was written with (stamped by WriteFleetSummary; empty on
	// summaries built in memory and on pre-1.1 files).
	SchemaVersion string `json:"schema_version,omitempty"`

	Nodes  int `json:"nodes"`
	Epochs int `json:"epochs"`

	// SER is the fleet system-energy ratio: total managed system
	// energy over total baseline system energy (< 1 means the fleet
	// saved energy; the paper's per-node SER generalized to the
	// cluster).
	SER float64 `json:"ser"`

	// Tail CPI degradation across nodes (nearest-rank quantiles of
	// the per-node CPI increase vs each node's own baseline).
	AvgCPIIncrease  float64 `json:"avg_cpi_increase"`
	P99CPIIncrease  float64 `json:"p99_cpi_increase"`
	P999CPIIncrease float64 `json:"p999_cpi_increase"`

	// Energy totals (joules).
	MemoryEnergyJ float64 `json:"memory_energy_j"`
	SystemEnergyJ float64 `json:"system_energy_j"`
	BaselineSysJ  float64 `json:"baseline_system_energy_j"`

	// MemAvgPowerW is the fleet-aggregate average memory power: total
	// managed memory energy over the wall-clock span of the run (nodes
	// run concurrently), directly comparable to BudgetW.
	MemAvgPowerW    float64 `json:"mem_avg_power_w"`
	BudgetW         float64 `json:"budget_w,omitempty"`
	BudgetExceeded  bool    `json:"budget_exceeded,omitempty"`
	ConstrainedFrac float64 `json:"constrained_frac"`

	// CapTrace is the per-fleet-epoch coordinator trace; Converged
	// reports whether the assignment reached a fixed point (a suffix
	// of decisions with zero cap churn), and ConvergedAtEpoch the
	// fleet epoch the fixed point was entered (-1 when never).
	CapTrace         []CapStep `json:"cap_trace,omitempty"`
	Converged        bool      `json:"converged"`
	ConvergedAtEpoch int       `json:"converged_at_epoch"`

	Groups  []GroupSummary `json:"groups"`
	PerNode []NodeSummary  `json:"per_node,omitempty"`

	// DeadNodes counts nodes lost to panics or errors; the survivors'
	// statistics are still reported.
	DeadNodes int `json:"dead_nodes,omitempty"`

	// Recoveries is always 0: nothing restarts a failed node. It stays
	// so summaries keep their shape for readers of older files.
	Recoveries int `json:"recoveries,omitempty"`

	// InvariantChecks counts runtime invariant checks that passed
	// across the fleet (per-node simulation checks, baselines included,
	// plus the coordinator's own); a violated invariant aborts with a
	// typed *invariant.Violation instead of counting.
	InvariantChecks uint64 `json:"invariant_checks,omitempty"`

	// Interrupted marks a run stopped through Config.Interrupt;
	// EpochsCompleted is the boundary it stopped at. Every energy, SER
	// and CPI figure of an interrupted summary pairs each node's
	// completed managed epochs with the same epochs of its baseline.
	Interrupted     bool `json:"interrupted,omitempty"`
	EpochsCompleted int  `json:"epochs_completed,omitempty"`

	// Events is the total simulation events fired across the fleet's
	// live nodes (managed runs plus the paired baseline epochs).
	Events uint64 `json:"events"`
}

// ErrInterrupted reports a fleet run stopped early through
// Config.Interrupt: the summary covers the epochs completed at the
// stop boundary. Matched with errors.Is (it wraps the checkpoint
// plane's shared checkpoint.ErrInterrupted sentinel).
var ErrInterrupted = fmt.Errorf("fleet: %w", checkpoint.ErrInterrupted)

// Run executes the fleet: per-node paired baselines (parallel), then
// the managed runs stepped in lockstep fleet epochs with the FastCap
// coordinator redistributing the budget between steps. Deterministic:
// the same Config yields a bit-identical Summary on any worker count —
// parallelism is across nodes only, every reduction runs in node
// order on the caller's goroutine, and the coordinator is serial.
//
// Node failures (a panicking governor, a simulation error) kill only
// that node: it is excluded from subsequent epochs and the tail
// statistics, and its error is joined into the returned error
// alongside the valid Summary (mirroring Sweep's partial-failure
// contract). When c.Interrupt fires, the run stops at the next window
// boundary (or cancels the baselines still running) and the error also
// matches ErrInterrupted. The partial summary pairs each node's
// completed epochs with the same epochs of its baseline, so its SER
// and CPI figures describe those epochs.
func Run(ctx context.Context, c Config) (Summary, error) {
	groups, err := c.resolve()
	if err != nil {
		return Summary{}, err
	}
	return run(ctx, c, groups)
}

// run executes c over its resolved groups.
func run(ctx context.Context, c Config, groups []group) (Summary, error) {
	c = c.withDefaults()
	nodes := buildNodes(c, groups)

	procs := c.Workers
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	workers := min(procs, len(nodes))

	// Phase 1: paired baselines, parallel across nodes. The baseline
	// also calibrates each node's rest-of-system power, which the
	// managed governor needs before it can be built. A soft stop
	// cancels the baselines still running: no managed epoch has run
	// yet, so nothing they would pair with exists.
	baseCtx, cancelBase := context.WithCancel(ctx)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		select {
		case <-c.Interrupt:
			cancelBase()
		case <-baseCtx.Done():
		}
	}()
	baseErrs := runner.ForEach(baseCtx, workers, len(nodes), func(ctx context.Context, i int) error {
		return nodes[i].runBaseline(ctx)
	}, nil)
	cancelBase()
	<-watched
	if err := ctx.Err(); err != nil {
		return Summary{}, err
	}
	interrupted := stopped(c.Interrupt)
	for i, err := range baseErrs {
		if err != nil && !(interrupted && errors.Is(err, context.Canceled)) {
			nodes[i].dead, nodes[i].err = true, err
		}
	}

	// Phase 2: build the managed systems (cheap, serial).
	for _, n := range nodes {
		if n.dead || interrupted {
			continue
		}
		if err := n.buildManaged(); err != nil {
			n.dead, n.err = true, err
		}
	}

	// Phase 3: lockstep fleet epochs. Every step advances all live
	// nodes by CapIntervalEpochs OS epochs in parallel, then the serial
	// coordinator reassigns caps from the step's measurements.
	var capTrace []CapStep
	var caps []config.FreqMHz
	var fleetChecks uint64
	capping := c.PowerBudgetW > 0
	done := 0
	for !interrupted && done < c.Epochs {
		if stopped(c.Interrupt) {
			interrupted = true
			break
		}
		k := min(c.CapIntervalEpochs, c.Epochs-done)
		stepErrs := runner.ForEach(ctx, workers, len(nodes), func(ctx context.Context, i int) error {
			if nodes[i].dead {
				return nil
			}
			return nodes[i].stepWindow(ctx, k)
		}, nil)
		for i, err := range stepErrs {
			if err != nil && !nodes[i].dead {
				nodes[i].dead, nodes[i].err = true, err
			}
		}
		if err := ctx.Err(); err != nil {
			return Summary{}, err
		}
		if capping && done+k < c.Epochs {
			obs := make([]nodeObs, len(nodes))
			for i, n := range nodes {
				obs[i] = n.observe()
			}
			newCaps, step := planCaps(done+k, c.PowerBudgetW, obs, caps)
			// Coordinator invariant: the planner never estimates above
			// the budget without declaring the deficit.
			if err := invariant.Check("cap_within_budget",
				step.DeficitW > 0 || step.EstimatedW <= c.PowerBudgetW*(1+1e-9),
				"epoch %d: estimated fleet power %.6f W exceeds budget %.6f W with no declared deficit",
				done+k, step.EstimatedW, c.PowerBudgetW); err != nil {
				return Summary{}, err
			}
			fleetChecks++
			for i, n := range nodes {
				if n.dead || newCaps[i] == 0 {
					continue
				}
				if err := n.sys.SetFrequencyCap(newCaps[i]); err != nil {
					return Summary{}, err
				}
			}
			caps = newCaps
			capTrace = append(capTrace, step)
		}
		done += k
	}

	// Phase 4: finalize and reduce, strictly in node order. Each live
	// node's managed epochs pair with the same epochs of its baseline;
	// a node stopped before its first epoch has nothing to pair.
	for _, n := range nodes {
		if n.dead {
			continue
		}
		n.baseRes = sim.Result{}
		if n.epochs > 0 {
			n.res = n.sys.Finalize()
			n.baseRes = n.baseAt[n.epochs-1]
		}
	}
	sum := summarize(c, groups, nodes, done, caps, capTrace)
	sum.InvariantChecks += fleetChecks
	errOut := joinNodeErrors(nodes)
	if interrupted {
		sum.Interrupted = true
		sum.EpochsCompleted = done
		errOut = errors.Join(ErrInterrupted, errOut)
	}
	return sum, errOut
}

// buildNodes expands the resolved groups into the flat node list, with
// stable global indices (group order, then node order) and precomputed
// arrival schedules.
func buildNodes(c Config, groups []group) []*node {
	var nodes []*node
	epochSec := config.Default().Policy.EpochLength.Seconds()
	for gi, g := range groups {
		for range g.nodes {
			n := &node{
				group:  gi,
				global: len(nodes),
				cfg:    g.cfg,
				mix:    g.mix,
				spec:   g.spec,
				seed:   c.Seed,
			}
			n.schedule = schedule(g.arrival, c.Seed, n.global, c.Epochs, epochSec)
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// summarize reduces the fleet, in node order, into the public summary
// of the first done epochs.
func summarize(c Config, resolved []group, nodes []*node, done int, caps []config.FreqMHz, capTrace []CapStep) Summary {
	sum := Summary{
		Nodes:    len(nodes),
		Epochs:   c.Epochs,
		BudgetW:  c.PowerBudgetW,
		CapTrace: capTrace,
	}

	groups := make([]GroupSummary, len(resolved))
	groupSys := make([]float64, len(resolved))
	groupBase := make([]float64, len(resolved))
	groupCPI := make([][]float64, len(resolved))
	for gi, g := range resolved {
		groups[gi] = GroupSummary{Name: g.name, Nodes: g.nodes, Rollup: telemetry.NewRollup()}
	}

	var cpis []float64
	var totalEpochs, constrainedEpochs int
	var wallSec float64
	for _, n := range nodes {
		ns := NodeSummary{Node: n.global, Group: groups[n.group].Name}
		if caps != nil && n.global < len(caps) {
			ns.FinalCapMHz = int(caps[n.global])
		}
		ns.MeanIntensity = mean(n.schedule[:done])
		sum.InvariantChecks += n.res.InvariantChecks + n.baseRes.InvariantChecks
		if n.dead {
			ns.Dead = true
			if n.err != nil {
				ns.Err = n.err.Error()
			}
			sum.DeadNodes++
			sum.PerNode = append(sum.PerNode, ns)
			continue
		}
		if n.epochs == 0 {
			// Stopped before its first epoch: no energy or CPI to report,
			// so the node stays out of SER and the CPI quantiles.
			sum.PerNode = append(sum.PerNode, ns)
			continue
		}
		sys := n.systemEnergy(n.res)
		base := n.systemEnergy(n.baseRes)
		cpi := n.cpiIncrease()

		ns.MemoryEnergyJ = n.res.Memory.Memory()
		ns.SystemEnergyJ = sys
		ns.BaselineSysJ = base
		if base > 0 {
			ns.SER = sys / base
		}
		ns.CPIIncrease = cpi
		ns.CappedEpochs = n.constrained
		sum.PerNode = append(sum.PerNode, ns)

		sum.MemoryEnergyJ += n.res.Memory.Memory()
		sum.SystemEnergyJ += sys
		sum.BaselineSysJ += base
		sum.Events += n.res.Events + n.baseRes.Events
		// Nodes run concurrently: the fleet draws the sum of the
		// per-node powers over one wall-clock span, not the serial
		// concatenation of node runtimes. A dead node's shorter
		// duration does not shrink the span the survivors cover.
		wallSec = math.Max(wallSec, n.res.Duration.Seconds())
		totalEpochs += n.epochs
		constrainedEpochs += n.constrained
		cpis = append(cpis, cpi)

		gi := n.group
		groupSys[gi] += sys
		groupBase[gi] += base
		groupCPI[gi] = append(groupCPI[gi], cpi)
		groups[gi].Rollup.Add(nodeExport(n))
	}

	if sum.BaselineSysJ > 0 {
		sum.SER = sum.SystemEnergyJ / sum.BaselineSysJ
	}
	if wallSec > 0 {
		sum.MemAvgPowerW = sum.MemoryEnergyJ / wallSec
	}
	if totalEpochs > 0 {
		sum.ConstrainedFrac = float64(constrainedEpochs) / float64(totalEpochs)
	}
	if c.PowerBudgetW > 0 && sum.MemAvgPowerW > c.PowerBudgetW {
		sum.BudgetExceeded = true
	}
	sum.AvgCPIIncrease = mean(cpis)
	sum.P99CPIIncrease = quantile(cpis, 0.99)
	sum.P999CPIIncrease = quantile(cpis, 0.999)

	for gi := range groups {
		if groupBase[gi] > 0 {
			groups[gi].SER = groupSys[gi] / groupBase[gi]
		}
		groups[gi].AvgCPIIncrease = mean(groupCPI[gi])
		groups[gi].P99CPIIncrease = quantile(groupCPI[gi], 0.99)
	}
	sum.Groups = groups

	sum.ConvergedAtEpoch = -1
	for i := len(capTrace) - 1; i >= 0; i-- {
		if capTrace[i].CapChanges != 0 {
			break
		}
		sum.Converged = true
		sum.ConvergedAtEpoch = capTrace[i].Epoch
	}
	return sum
}

// nodeExport packages one node's managed totals as a run export so
// group aggregation reuses the standard telemetry rollup.
func nodeExport(n *node) *telemetry.RunExport {
	freqSeconds := make(map[int]float64, len(n.res.FreqTime))
	for f, t := range n.res.FreqTime {
		freqSeconds[int(f)] = t.Seconds()
	}
	return &telemetry.RunExport{
		Meta: telemetry.RunMeta{
			Mix:          n.mix.Name,
			Policy:       n.spec.Name,
			Gamma:        n.cfg.Policy.Gamma,
			Cores:        n.cfg.Cores,
			Channels:     n.cfg.Channels,
			NonMemPowerW: n.nonMem,
		},
		DurationSeconds: n.res.Duration.Seconds(),
		Energy:          n.res.Memory.Export(),
		Residency:       n.res.Residency,
		FreqSeconds:     freqSeconds,
	}
}

// stopped reports whether the soft-stop channel has fired; a nil
// channel never has.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func joinNodeErrors(nodes []*node) error {
	var errs []error
	for _, n := range nodes {
		if n.err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", n.global, n.err))
		}
	}
	return errors.Join(errs...)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile is the nearest-rank quantile over a copy of v (v itself is
// never reordered, preserving node-order determinism elsewhere).
// Small populations clamp to the maximum, so p999 of a 100-node fleet
// is its worst node.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
