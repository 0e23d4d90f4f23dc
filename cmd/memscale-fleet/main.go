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
// SIGINT/SIGTERM handling: the first signal stops the fleet at its
// next window boundary, or cancels the baselines if they are still
// running; the partial summary, which pairs every node's completed
// epochs with the same epochs of its baseline, goes through the usual
// digest and -json/-nodes-csv/-caps-csv writers, and the process exits
// with code 3. A second signal cancels hard.
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
// SIGINT/SIGTERM after writing its partial summary — distinct from 1
// (failure) so a caller can tell "stopped early" from "fix me".
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
	flag.Parse()

	fc := memscale.FleetConfig{
		Epochs:            *epochs,
		PowerBudgetW:      *budget,
		CapIntervalEpochs: *capEvery,
		Seed:              *seed,
		Workers:           *workers,
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
		fc.Groups = append(fc.Groups, g)
	}

	// Signal wiring: the first SIGINT/SIGTERM soft-stops the fleet at
	// its next window boundary; only a second one cancels hard.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	softStop := make(chan struct{})
	fc.Interrupt = softStop
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigs
		close(softStop)
		<-sigs
		cancel()
	}()
	sum, err := memscale.RunFleet(ctx, fc)
	cancel()
	interrupted := errors.Is(err, memscale.ErrInterrupted)
	if err != nil && sum.Nodes == 0 {
		fatal(err) // an invalid configuration or a total failure: nothing to report
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
	if interrupted {
		fmt.Fprintf(os.Stderr, "memscale-fleet: interrupted at epoch %d/%d\n",
			sum.EpochsCompleted, sum.Epochs)
		os.Exit(exitInterrupted)
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
	if sum.BaselineSysJ == 0 {
		fmt.Fprintf(w, "  no live node completed an epoch (%d dead)\n", sum.DeadNodes)
		return
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memscale-fleet:", err)
	os.Exit(1)
}
