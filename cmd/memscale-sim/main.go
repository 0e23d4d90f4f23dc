// Command memscale-sim runs a single (workload, policy) pair against
// the unmanaged baseline and prints the paired outcome: energy
// savings, CPI degradation, and the frequency residency.
//
// Usage:
//
//	memscale-sim -mix MID1 [-policy MemScale] [-epochs 10]
//	             [-gamma 0.10] [-cores 16] [-channels 4] [-timeline]
//	             [-checkpoint-out run.ckpt [-checkpoint-epoch K]]
//	             [-restore run.ckpt]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-blockprofile block.pprof]
//
// -checkpoint-out captures the run's full simulation state to a
// container file (at the final epoch by default, or after
// -checkpoint-epoch epochs); -restore continues a checkpointed run to
// -epochs total quanta, bit-identical to the uninterrupted run. A long
// run interrupted by a crash or Ctrl-C resumes from its last written
// container instead of starting over; -restore ignores the workload
// and policy flags (the container records them). Containers written by
// a fault-injected run of an earlier release are rejected: this
// simulator cannot replay their disturbance schedule.
//
// The -*profile flags write pprof profiles of the simulation for
// `go tool pprof`: CPU samples over the whole run, the live heap at
// exit (after the run, so steady-state retention is visible), and
// blocking events. Profiling never alters the simulated results.
//
// SIGINT/SIGTERM handling: with -checkpoint-out set, the first signal
// is a soft stop — the run finishes its current epoch, writes its
// state to the container file, and exits with code 3 (resume it with
// -restore); a second signal cancels hard. Without -checkpoint-out,
// the first signal cancels the simulation promptly.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"memscale"
	"memscale/internal/checkpoint"
)

// exitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM
// after writing its final checkpoint — distinct from 1 (failure) so
// supervisors can tell "resume me" from "fix me".
const exitInterrupted = 3

func main() {
	mix := flag.String("mix", "MID1", "workload mix ("+strings.Join(memscale.Mixes(), ", ")+")")
	policy := flag.String("policy", "MemScale", "policy ("+strings.Join(memscale.Policies(), ", ")+")")
	epochs := flag.Int("epochs", 10, "OS quanta (5 ms each) to simulate")
	gamma := flag.Float64("gamma", 0.10, "maximum allowed performance degradation")
	cores := flag.Int("cores", 0, "core count override (default 16)")
	channels := flag.Int("channels", 0, "channel count override (default 4)")
	timeline := flag.Bool("timeline", false, "print the per-epoch frequency/CPI timeline")
	checkpointOut := flag.String("checkpoint-out", "",
		"write the run's full simulation state to this container file (resume it with -restore)")
	checkpointEpoch := flag.Int("checkpoint-epoch", 0,
		"epoch boundary to capture the -checkpoint-out state at (default: the final epoch)")
	restore := flag.String("restore", "",
		"resume a checkpointed run from this container file to -epochs total quanta")
	telemetryOut := flag.String("telemetry-out", "",
		"collect full telemetry (with events) and write it as JSONL to this file; read it with memscale-report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (at exit) to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file")

	flag.Parse()

	// Signal wiring: with a checkpoint target, the first SIGINT/SIGTERM
	// soft-stops the run (finish the epoch, write the container); only
	// a second one cancels hard. Otherwise the first signal cancels.
	var softStop chan struct{}
	var ctx context.Context
	if *checkpointOut != "" {
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		softStop = make(chan struct{})
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-sigs
			close(softStop)
			<-sigs
			cancel()
		}()
	} else {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "memscale-sim:", err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			f, err := os.Create(*blockProfile)
			if err != nil {
				fatal(err)
			}
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // report steady-state retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	rc := memscale.RunConfig{
		Mix:      *mix,
		Policy:   *policy,
		Epochs:   *epochs,
		Gamma:    *gamma,
		Cores:    *cores,
		Channels: *channels,
		Timeline: *timeline,
	}
	if *telemetryOut != "" {
		rc.Telemetry = &memscale.TelemetryConfig{Events: true}
	}
	var sum memscale.RunSummary
	var err error
	switch {
	case *restore != "":
		var f *os.File
		if f, err = os.Open(*restore); err != nil {
			fatal(err)
		}
		sum, err = memscale.ResumeRun(ctx, f, *epochs)
		f.Close()
		if err == nil {
			fmt.Printf("resumed from %s\n", *restore)
		}
	case *checkpointOut != "":
		var buf bytes.Buffer
		sum, err = memscale.CheckpointRunInterruptible(ctx, rc, *checkpointEpoch, softStop, &buf)
		interrupted := errors.Is(err, memscale.ErrInterrupted)
		if err == nil || interrupted {
			// Written through a synced temporary file and a rename, so a
			// crash or a full disk mid-write leaves any earlier container
			// at the path intact rather than truncated.
			ck, werr := checkpoint.Decode(&buf)
			if werr == nil {
				werr = checkpoint.WriteFile(*checkpointOut, ck)
			}
			if werr != nil {
				fatal(werr)
			}
			fmt.Printf("checkpoint written to %s\n", *checkpointOut)
		}
		if interrupted {
			fmt.Fprintf(os.Stderr, "memscale-sim: interrupted; resume with -restore %s\n", *checkpointOut)
			os.Exit(exitInterrupted)
		}
	default:
		sum, err = memscale.RunContext(ctx, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memscale-sim:", err)
		os.Exit(1)
	}
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err == nil {
			err = memscale.WriteTelemetry(f, sum)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memscale-sim: telemetry:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry written to %s\n", *telemetryOut)
	}

	fmt.Println(sum)
	fmt.Printf("simulated %.0f ms; memory energy %.3f J; system energy %.3f J\n",
		sum.DurationSeconds*1000, sum.MemoryEnergyJ, sum.SystemEnergyJ)

	freqs := make([]int, 0, len(sum.FreqSeconds))
	for f := range sum.FreqSeconds {
		freqs = append(freqs, f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	fmt.Println("frequency residency:")
	for _, f := range freqs {
		fmt.Printf("  %4d MHz  %5.1f%%\n", f, sum.FreqSeconds[f]/sum.DurationSeconds*100)
	}

	if *timeline {
		fmt.Println("timeline (per 5 ms epoch):")
		for _, ep := range sum.Timeline {
			var cpiMin, cpiMax float64
			for i, c := range ep.CoreCPI {
				if i == 0 || c < cpiMin {
					cpiMin = c
				}
				if c > cpiMax {
					cpiMax = c
				}
			}
			var util float64
			for _, u := range ep.ChannelUtil {
				util += u
			}
			if len(ep.ChannelUtil) > 0 {
				util /= float64(len(ep.ChannelUtil))
			}
			fmt.Printf("  t=%6.1fms  %4d MHz  CPI %.2f-%.2f  chan util %4.1f%%\n",
				ep.EndMs(), ep.BusFreqMHz(), cpiMin, cpiMax, util*100)
		}
	}
}
