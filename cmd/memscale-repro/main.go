// Command memscale-repro regenerates the paper's evaluation: every
// table and figure (Table 1-2, Figures 2, 5-15, and the Section 4.2.4
// sensitivity extras), printed as ASCII tables and optionally written
// as CSV files for plotting.
//
// Usage:
//
//	memscale-repro [-experiment all|table1|figure5+6|...] [-epochs N]
//	               [-gamma 0.10] [-workers N] [-csv DIR]
//	               [-quiet]
//
// The default scale (10 quanta = 50 ms simulated per run) reproduces
// the paper's trends. `-experiment all` took 8m02s of wall time and
// 14 CPU-minutes at the default 10 epochs, and 3m15s at -epochs 4, on
// a 2-vCPU Intel Xeon host (Go 1.24). The experiment grids are
// embarrassingly parallel, so the sweep engine spreads the runs over
// the worker count (default GOMAXPROCS). Raise -epochs for tighter
// numbers. Ctrl-C cancels the in-flight simulations promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"memscale"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id to run ("+strings.Join(memscale.Experiments(), ", ")+", or all)")
	epochs := flag.Int("epochs", 10, "OS quanta (5 ms each) per run")
	timelineEpochs := flag.Int("timeline-epochs", 20, "OS quanta for the figure 7/8 timelines")
	gamma := flag.Float64("gamma", 0.10, "maximum allowed performance degradation")
	workers := flag.Int("workers", 0, "concurrent simulations per experiment grid (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files (optional)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range memscale.Experiments() {
			fmt.Println(id)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	params := memscale.ExperimentParams{
		Epochs:         *epochs,
		TimelineEpochs: *timelineEpochs,
		Gamma:          *gamma,
		Workers:        *workers,
	}
	if !*quiet {
		params.Progress = os.Stderr
	}

	start := time.Now()
	reports, err := memscale.RunExperimentContext(ctx, *experiment, params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memscale-repro:", err)
		os.Exit(1)
	}

	for _, r := range reports {
		fmt.Print(r.Text)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "memscale-repro:", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "memscale-repro:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "completed %d report(s) in %s\n", len(reports), time.Since(start).Round(time.Second))
}
