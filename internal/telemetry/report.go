package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// Report rendering: the figure-ready CSV views and the human summary
// memscale-report prints. All views are derived purely from run
// exports, so any tool that loads the JSONL interchange format can
// reproduce them.

// WriteResidencyCSV renders the figure7-style per-epoch timeline: for
// every epoch of every run, the chosen frequency, mean CPI, mean
// channel utilization, and the DRAM state-residency fractions.
func WriteResidencyCSV(w io.Writer, exports []*RunExport) error {
	if _, err := fmt.Fprint(w, "mix,policy,epoch,end_ms,freq_mhz,mean_cpi,mean_util"); err != nil {
		return err
	}
	for _, c := range ResidencyColumns {
		if _, err := fmt.Fprintf(w, ",%s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, e := range exports {
		if e == nil {
			continue
		}
		for _, ep := range e.Epochs {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f,%d,%.4f,%.4f",
				e.Meta.Mix, e.Meta.Policy, ep.Index, ep.EndMs(), ep.BusFreqMHz(),
				ep.MeanCPI(), ep.MeanUtil()); err != nil {
				return err
			}
			for _, f := range ep.ResidencyFractions() {
				if _, err := fmt.Fprintf(w, ",%.6f", f); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteLatencyCSV renders the merged read-latency histogram buckets.
func WriteLatencyCSV(w io.Writer, exports []*RunExport) error {
	if _, err := fmt.Fprintln(w, "mix,policy,bucket_le_ns,count"); err != nil {
		return err
	}
	for _, e := range exports {
		if e == nil {
			continue
		}
		h := e.Histogram("read_latency")
		if h == nil {
			continue
		}
		for i, c := range h.Counts {
			label := "+inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("%g", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d\n", e.Meta.Mix, e.Meta.Policy, label, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteDecisionsCSV renders the governor decision trace: chosen
// frequency and predicted-vs-actual CPI per epoch. Runs exported
// without the event stream contribute no rows.
func WriteDecisionsCSV(w io.Writer, exports []*RunExport) error {
	if _, err := fmt.Fprintln(w, "mix,policy,epoch,t_ms,from_mhz,chosen_mhz,predicted_cpi,actual_cpi"); err != nil {
		return err
	}
	for _, e := range exports {
		if e == nil {
			continue
		}
		for _, ev := range e.Events {
			if ev.Kind != EvDecision {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f,%d,%d,%.4f,%.4f\n",
				e.Meta.Mix, e.Meta.Policy, ev.Epoch, ev.Time.Milliseconds(),
				ev.A, ev.B, ev.F1, ev.F2); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFreqCSV renders per-run frequency residency.
func WriteFreqCSV(w io.Writer, exports []*RunExport) error {
	if _, err := fmt.Fprintln(w, "mix,policy,freq_mhz,seconds,share"); err != nil {
		return err
	}
	for _, e := range exports {
		if e == nil {
			continue
		}
		for _, f := range sortedFreqs(e.FreqSeconds) {
			share := 0.0
			if e.DurationSeconds > 0 {
				share = e.FreqSeconds[f] / e.DurationSeconds
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6f,%.4f\n",
				e.Meta.Mix, e.Meta.Policy, f, e.FreqSeconds[f], share); err != nil {
				return err
			}
		}
	}
	return nil
}

// EventCSVHeader is the column layout of WriteEventsCSV rows.
const EventCSVHeader = "kind,t_ps,epoch,channel,rank,core,a,b,c,f1,f2"

// WriteEventsCSV renders every retained event of every run.
func WriteEventsCSV(w io.Writer, exports []*RunExport) error {
	if _, err := fmt.Fprintln(w, EventCSVHeader); err != nil {
		return err
	}
	for _, e := range exports {
		if e == nil {
			continue
		}
		for _, ev := range e.Events {
			_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g\n",
				ev.Kind, int64(ev.Time), ev.Epoch, ev.Channel, ev.Rank, ev.Core,
				ev.A, ev.B, ev.C, ev.F1, ev.F2)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSummary prints the human-readable digest: one block per run
// plus a cross-run aggregate when several runs are loaded.
func WriteSummary(w io.Writer, exports []*RunExport) error {
	ro := NewRollup()
	for _, e := range exports {
		if e == nil {
			continue
		}
		ro.Add(e)
		writeRunSummary(w, e)
	}
	if ro.Runs == 0 {
		_, err := fmt.Fprintln(w, "no telemetry runs loaded")
		return err
	}
	if ro.Runs > 1 {
		fmt.Fprintf(w, "aggregate over %d runs: %d epochs, %.3f s simulated, %.3f J memory energy\n",
			ro.Runs, ro.Epochs, ro.DurationSeconds, ro.Energy.Memory())
		writeResidencyLine(w, "  state residency", residencyFractions(ro.Residency))
		if h := ro.Histograms["read_latency"]; h != nil && h.Count > 0 {
			fmt.Fprintf(w, "  read latency: n=%d mean=%.0f ns p50<=%.0f p95<=%.0f max=%.0f\n",
				h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Max)
		}
	}
	return nil
}

func writeRunSummary(w io.Writer, e *RunExport) {
	fmt.Fprintf(w, "%s/%s: %.3f s simulated, %d epochs, memory %.3f J (DRAM %.3f, PLL/REG %.3f, MC %.3f)\n",
		e.Meta.Mix, e.Meta.Policy, e.DurationSeconds, len(e.Epochs),
		e.Energy.Memory(), e.Energy.DRAM(), e.Energy.PLLReg, e.Energy.MC)
	writeResidencyLine(w, "  state residency", residencyFractions(e.Residency))
	if len(e.FreqSeconds) > 0 {
		fmt.Fprint(w, "  frequency residency:")
		for _, f := range sortedFreqs(e.FreqSeconds) {
			share := 0.0
			if e.DurationSeconds > 0 {
				share = e.FreqSeconds[f] / e.DurationSeconds
			}
			fmt.Fprintf(w, " %d:%.0f%%", f, share*100)
		}
		fmt.Fprintln(w)
	}
	if h := e.Histogram("read_latency"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "  read latency: n=%d mean=%.0f ns p50<=%.0f p95<=%.0f max=%.0f\n",
			h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Max)
	}
	if h := e.Histogram("queue_depth"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "  queue depth at arrival: mean=%.2f p95<=%.0f max=%.0f\n",
			h.Mean(), h.Quantile(0.95), h.Max)
	}
	if n := e.Counters["decisions"]; n > 0 {
		fmt.Fprintf(w, "  governor: %d decisions, %d frequency transitions", n, e.Counters["freq_transitions"])
		if err := decisionAccuracy(e); err != "" {
			fmt.Fprintf(w, ", %s", err)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  powerdown: %d enters / %d exits; %d refreshes\n",
		e.Counters["powerdown_enters"], e.Counters["powerdown_exits"], e.Counters["refreshes"])
	if e.DroppedEvents > 0 {
		fmt.Fprintf(w, "  WARNING: %d events dropped (ring full)\n", e.DroppedEvents)
	}
}

// decisionAccuracy summarizes predicted-vs-actual CPI error over the
// run's decision events.
func decisionAccuracy(e *RunExport) string {
	var n int
	var sumErr float64
	for _, ev := range e.Events {
		if ev.Kind != EvDecision || ev.F1 <= 0 || ev.F2 <= 0 {
			continue
		}
		d := (ev.F1 - ev.F2) / ev.F2
		if d < 0 {
			d = -d
		}
		sumErr += d
		n++
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("mean |predicted-actual| CPI error %.1f%%", sumErr/float64(n)*100)
}

func writeResidencyLine(w io.Writer, label string, fr [6]float64) {
	fmt.Fprintf(w, "%s:", label)
	for i, c := range ResidencyColumns {
		fmt.Fprintf(w, " %s=%.1f%%", c, fr[i]*100)
	}
	fmt.Fprintln(w)
}

func sortedFreqs(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
