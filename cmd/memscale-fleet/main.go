// Command memscale-fleet simulates a cluster of MemScale servers
// under a global memory-power budget. Each node is a full paired
// simulation (managed run vs unmanaged baseline) driven by an
// open-loop arrival process; every fleet epoch a FastCap-style
// coordinator redistributes the budget across nodes as per-node
// frequency caps.
//
// Usage:
//
//	memscale-fleet -nodes 1000 -mix MID1 -budget 20000
//	memscale-fleet -group web:600:MID1:MemScale:diurnal -group cache:400:MEM2:MemScale:bursty -budget 18000
//	memscale-fleet -nodes 64 -json fleet.json -nodes-csv nodes.csv -caps-csv caps.csv
//
// The -group flag (repeatable) takes name:nodes:mix[:policy[:arrival]]
// and overrides the single-group -nodes/-mix/-policy/-arrival
// shortcut. A -json/-nodes-csv/-caps-csv path of "-" writes stdout.
// The run is deterministic for a fixed -seed on any -workers count.
//
// Chaos and self-healing: the -crash-rate/-straggler-rate/
// -ckpt-corrupt-rate/-loss-rate flags inject fleet-scope faults into
// every node; -recover arms the checkpoint-restart supervisor
// (-max-retries restarts per window, snapshots every -ckpt-every
// epochs) that recovers them transparently — surviving-node metrics
// are bit-identical to the undisturbed same-seed run.
//
// SIGINT/SIGTERM handling: with -checkpoint-out set, the first signal
// stops the fleet at its next window boundary, writes every live
// node's state to the bundle file, and exits with code 3; a second
// signal cancels hard. Without -checkpoint-out the first signal
// cancels promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"memscale"
)

// exitInterrupted is the exit code of a fleet stopped by
// SIGINT/SIGTERM after writing its checkpoint bundle — distinct from 1
// (failure) so supervisors can tell "resume me" from "fix me".
const exitInterrupted = 3

// groupFlags collects repeated -group specs.
type groupFlags []string

func (g *groupFlags) String() string     { return strings.Join(*g, " ") }
func (g *groupFlags) Set(s string) error { *g = append(*g, s); return nil }

func main() {
	var groups groupFlags
	flag.Var(&groups, "group",
		"node group as name:nodes:mix[:policy[:arrival]] (repeatable; overrides -nodes/-mix/-policy/-arrival)")
	nodes := flag.Int("nodes", 8, "node count of the default group")
	mix := flag.String("mix", "MID1", "workload mix of the default group ("+strings.Join(memscale.Mixes(), ", ")+")")
	policy := flag.String("policy", "MemScale", "policy of the default group ("+strings.Join(memscale.Policies(), ", ")+")")
	arrival := flag.String("arrival", "poisson", "arrival process: steady, poisson, bursty, diurnal")
	epochs := flag.Int("epochs", 10, "OS epochs (5 ms each) per node")
	budget := flag.Float64("budget", 0, "global memory-power budget in watts (0 = uncapped)")
	capEvery := flag.Int("cap-every", 1, "coordinator period in epochs")
	gamma := flag.Float64("gamma", 0.10, "maximum allowed per-node performance degradation")
	seed := flag.Uint64("seed", 0, "fleet seed (decorrelates nodes; fixes the whole run)")
	workers := flag.Int("workers", 0, "node-level parallelism (0 = GOMAXPROCS); results are worker-count independent")
	jsonOut := flag.String("json", "", "write the full fleet summary JSON to this path")
	nodesCSV := flag.String("nodes-csv", "", "write the per-node outcome CSV to this path")
	capsCSV := flag.String("caps-csv", "", "write the cap-convergence trace CSV to this path")
	quiet := flag.Bool("q", false, "suppress the human-readable digest")

	faultSeed := flag.Uint64("fault-seed", 0, "seed of the deterministic fleet fault schedule")
	crashRate := flag.Float64("crash-rate", 0, "per-epoch probability a node crashes mid-window")
	stragglerRate := flag.Float64("straggler-rate", 0, "per-epoch probability a node stalls in host time")
	corruptRate := flag.Float64("ckpt-corrupt-rate", 0, "per-snapshot probability a checkpoint write is corrupted")
	lossRate := flag.Float64("loss-rate", 0, "per-epoch probability a coordinator-visible loss window opens")
	selfHeal := flag.Bool("recover", false, "arm the self-healing supervisor (checkpoint restarts)")
	maxRetries := flag.Int("max-retries", 0, "restart budget per fleet window (0 = default 3)")
	ckptEvery := flag.Int("ckpt-every", 0, "snapshot cadence in epochs (0 = default 1)")
	stepTimeout := flag.Duration("step-timeout", 0, "per-window watchdog in host time (0 = disabled)")
	checkpointOut := flag.String("checkpoint-out", "",
		"on SIGINT/SIGTERM, write every live node's state to this bundle file and exit 3")
	flag.Parse()

	fc := memscale.FleetConfig{
		Epochs:            *epochs,
		PowerBudgetW:      *budget,
		CapIntervalEpochs: *capEvery,
		Seed:              *seed,
		Workers:           *workers,
	}
	if *selfHeal || *maxRetries > 0 || *ckptEvery > 0 || *stepTimeout > 0 {
		fc.Recovery = &memscale.FleetRecoveryConfig{
			MaxRetries:      *maxRetries,
			CheckpointEvery: *ckptEvery,
			StepTimeout:     *stepTimeout,
		}
	}
	var chaos *memscale.FaultConfig
	if *crashRate > 0 || *stragglerRate > 0 || *corruptRate > 0 || *lossRate > 0 {
		chaos = &memscale.FaultConfig{
			Seed:                  *faultSeed,
			NodeCrashRate:         *crashRate,
			StragglerRate:         *stragglerRate,
			CheckpointCorruptRate: *corruptRate,
			NodeLossRate:          *lossRate,
		}
	}
	if len(groups) == 0 {
		groups = groupFlags{fmt.Sprintf("fleet:%d:%s:%s:%s", *nodes, *mix, *policy, *arrival)}
	}
	for _, spec := range groups {
		g, err := parseGroup(spec)
		if err != nil {
			fatal(err)
		}
		g.Gamma = *gamma
		if chaos != nil {
			f := *chaos
			g.Faults = &f
		}
		fc.Groups = append(fc.Groups, g)
	}
	if err := fc.Validate(); err != nil {
		fatal(err)
	}

	// Signal wiring: with a bundle target, the first SIGINT/SIGTERM
	// soft-stops the fleet at its next window boundary; only a second
	// one cancels hard. Otherwise the first signal cancels.
	var sum memscale.FleetSummary
	var err error
	if *checkpointOut != "" {
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		softStop := make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-sigs
			close(softStop)
			<-sigs
			cancel()
		}()
		var bundle *memscale.FleetCheckpointBundle
		sum, bundle, err = memscale.RunFleetInterruptible(ctx, fc, softStop)
		cancel()
		if errors.Is(err, memscale.ErrInterrupted) && bundle != nil {
			if werr := writeBundle(*checkpointOut, bundle); werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "memscale-fleet: interrupted at epoch %d/%d; bundle written to %s\n",
				sum.EpochsCompleted, fc.Epochs, *checkpointOut)
			os.Exit(exitInterrupted)
		}
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		sum, err = memscale.RunFleet(ctx, fc)
		stop()
	}
	if err != nil && sum.Nodes == 0 {
		fatal(err) // total failure: nothing to report
	}

	type view struct {
		path  string
		write func(io.Writer, memscale.FleetSummary) error
	}
	for _, v := range []view{
		{*jsonOut, memscale.WriteFleetSummary},
		{*nodesCSV, memscale.WriteFleetNodesCSV},
		{*capsCSV, memscale.WriteFleetCapsCSV},
	} {
		if v.path == "" {
			continue
		}
		if err := emit(v.path, sum, v.write); err != nil {
			fatal(err)
		}
	}

	if !*quiet {
		digest(os.Stdout, fc, sum)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memscale-fleet: partial failure:", err)
		os.Exit(1)
	}
}

// parseGroup decodes name:nodes:mix[:policy[:arrival]].
func parseGroup(spec string) (memscale.NodeGroup, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return memscale.NodeGroup{}, fmt.Errorf("group %q: want name:nodes:mix[:policy[:arrival]]", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return memscale.NodeGroup{}, fmt.Errorf("group %q: bad node count: %v", spec, err)
	}
	g := memscale.NodeGroup{Name: parts[0], Nodes: n, Mix: parts[2]}
	if len(parts) > 3 {
		g.Policy = parts[3]
	}
	if len(parts) > 4 {
		g.Arrival = memscale.ArrivalConfig{Kind: memscale.ArrivalKind(parts[4])}
	}
	return g, nil
}

func digest(w io.Writer, fc memscale.FleetConfig, sum memscale.FleetSummary) {
	fmt.Fprintf(w, "fleet: %d nodes, %d groups, %d epochs\n",
		sum.Nodes, len(sum.Groups), sum.Epochs)
	fmt.Fprintf(w, "  system-energy ratio (SER): %.4f  (%.1f%% fleet energy savings)\n",
		sum.SER, (1-sum.SER)*100)
	fmt.Fprintf(w, "  CPI increase: avg %+.2f%%  p99 %+.2f%%  p999 %+.2f%%\n",
		sum.AvgCPIIncrease*100, sum.P99CPIIncrease*100, sum.P999CPIIncrease*100)
	fmt.Fprintf(w, "  memory power: %.1f W", sum.MemAvgPowerW)
	if fc.PowerBudgetW > 0 {
		over := ""
		if sum.BudgetExceeded {
			over = "  [EXCEEDED]"
		}
		fmt.Fprintf(w, " of %.1f W budget%s; %.1f%% of node-epochs cap-constrained",
			fc.PowerBudgetW, over, sum.ConstrainedFrac*100)
	}
	fmt.Fprintln(w)
	if len(sum.CapTrace) > 0 {
		if sum.Converged {
			fmt.Fprintf(w, "  cap assignment: converged at fleet epoch %d (%d decisions)\n",
				sum.ConvergedAtEpoch, len(sum.CapTrace))
		} else {
			last := sum.CapTrace[len(sum.CapTrace)-1]
			fmt.Fprintf(w, "  cap assignment: still churning after %d decisions (last epoch changed %d caps)\n",
				len(sum.CapTrace), last.CapChanges)
		}
	}
	for _, g := range sum.Groups {
		fmt.Fprintf(w, "  group %-12s %4d nodes  SER %.4f  CPI avg %+.2f%% p99 %+.2f%%\n",
			g.Name, g.Nodes, g.SER, g.AvgCPIIncrease*100, g.P99CPIIncrease*100)
	}
	if sum.Recoveries > 0 {
		fmt.Fprintf(w, "  self-healing: %d checkpoint restarts across %d degraded nodes\n",
			sum.Recoveries, len(sum.DegradedNodes))
	}
	if len(sum.LostNodes) > 0 {
		fmt.Fprintf(w, "  lost nodes (restart budget exhausted): %v\n", sum.LostNodes)
	}
	if sum.DeadNodes > 0 {
		fmt.Fprintf(w, "  dead nodes: %d\n", sum.DeadNodes)
	}
}

func emit(path string, sum memscale.FleetSummary,
	write func(io.Writer, memscale.FleetSummary) error) error {
	if path == "-" {
		return write(os.Stdout, sum)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, sum); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBundle(path string, b *memscale.FleetCheckpointBundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := memscale.WriteFleetCheckpoint(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memscale-fleet:", err)
	os.Exit(1)
}
