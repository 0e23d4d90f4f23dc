package exp

import (
	"fmt"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/sim"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// Figure2 reproduces the conventional memory power breakdown: for each
// workload class, the baseline system's memory power split into
// background, activate/precharge, read/write, termination, PLL/REG,
// and MC shares, normalized to the MEM-class average power. The twelve
// baselines run concurrently.
func (p Params) Figure2() (Report, error) {
	t := stats.Table{
		Title: "Figure 2: conventional memory subsystem power breakdown",
		Columns: []string{"Class", "Background", "Act/Pre", "W/R", "Term+Refr",
			"PLL/REG", "MC", "Power vs AVG_MEM"},
		Notes: []string{"baseline (no energy management); shares of memory-subsystem power"},
	}
	bases := make([]sim.Result, len(workload.Mixes))
	err := p.forEachMix(func(i int, mix workload.Mix) error {
		res, _, err := p.runBaseline(config.Default(), mix)
		bases[i] = res
		return err
	}, func(i int) {
		p.logf("  figure2 %s: %.1f W memory", workload.Mixes[i].Name, bases[i].MemAvgWatts)
	})
	if err != nil {
		return Report{}, err
	}
	// Sum each class's mixes in Table 1 order, then average.
	type classPower struct {
		shares   [6]float64
		watts, n float64
	}
	results := map[workload.Class]*classPower{}
	for i, mix := range workload.Mixes {
		agg := results[mix.Class]
		if agg == nil {
			agg = &classPower{}
			results[mix.Class] = agg
		}
		b := bases[i].Memory
		mem := b.Memory()
		agg.shares[0] += b.Background / mem
		agg.shares[1] += b.ActPre / mem
		agg.shares[2] += b.ReadWrite / mem
		agg.shares[3] += (b.Termination + b.Refresh) / mem
		agg.shares[4] += b.PLLReg / mem
		agg.shares[5] += b.MC / mem
		agg.watts += bases[i].MemAvgWatts
		agg.n++
	}
	memClass := results[workload.ClassMEM]
	norm := memClass.watts / memClass.n
	for _, class := range []workload.Class{workload.ClassMEM, workload.ClassMID, workload.ClassILP} {
		r := results[class]
		row := []string{"AVG_" + class.String()}
		for _, share := range r.shares {
			row = append(row, stats.Pct(share/r.n))
		}
		t.AddRow(append(row, stats.Pct(r.watts/r.n/norm))...)
	}
	return Report{ID: "figure2", Title: "Power breakdown", Table: t}, nil
}

// MemScaleOutcomes runs MemScale on all twelve Table 1 mixes with the
// configured bound and returns the paired outcomes (the data behind
// Figures 5 and 6). The mixes run concurrently on the sweep engine;
// outcomes come back in Table 1 order.
func (p Params) MemScaleOutcomes() ([]Outcome, error) {
	jobs := make([]runner.Job, 0, len(workload.Mixes))
	for _, mix := range workload.Mixes {
		jobs = append(jobs, p.job(nil, mix, policies.MemScale))
	}
	return p.runGrid(jobs)
}

// Figures5And6 run MemScale on all twelve mixes with the default 10%
// bound and report energy savings (Figure 5) and CPI overheads
// (Figure 6).
func (p Params) Figures5And6() ([]Report, error) {
	f5 := stats.Table{
		Title:   "Figure 5: MemScale energy savings (gamma = 10%)",
		Columns: []string{"Workload", "Full System Energy", "Memory System Energy"},
	}
	f6 := stats.Table{
		Title:   "Figure 6: MemScale CPI overhead (gamma = 10%)",
		Columns: []string{"Workload", "Multiprogram Average", "Worst Program in Mix"},
		Notes:   []string{"CPI degradation bound: 10%"},
	}
	outs, err := p.MemScaleOutcomes()
	if err != nil {
		return nil, err
	}
	var sysAll, memAll, avgAll, worstAll stats.Series
	for _, out := range outs {
		avg, worst := out.CPIIncrease()
		f5.AddRow(out.Mix.Name, stats.Pct(out.SystemSavings()), stats.Pct(out.MemorySavings()))
		f6.AddRow(out.Mix.Name, stats.Pct(avg), stats.Pct(worst))
		sysAll.Add(out.SystemSavings())
		memAll.Add(out.MemorySavings())
		avgAll.Add(avg)
		worstAll.Add(worst)
	}
	f5.AddRow("AVERAGE", stats.Pct(sysAll.Mean()), stats.Pct(memAll.Mean()))
	f6.AddRow("AVERAGE", stats.Pct(avgAll.Mean()), stats.Pct(worstAll.Mean()))
	return []Report{
		{ID: "figure5", Title: "Energy savings", Table: f5},
		{ID: "figure6", Title: "CPI overhead", Table: f6},
	}, nil
}

// timeline runs one mix under MemScale for TimelineEpochs with
// per-epoch records, calibrated on the baseline of the same run, as
// every other figure is.
func (p Params) timeline(mixName string, cores int) (*sim.Result, workload.Mix, error) {
	mix, err := workload.ByName(mixName)
	if err != nil {
		return nil, mix, err
	}
	out, err := p.engine().Run(p.ctx(), runner.Job{
		Mix:      mix,
		Spec:     policies.MemScale,
		Epochs:   p.TimelineEpochs,
		Gamma:    p.Gamma,
		Cores:    cores,
		Timeline: true,
	})
	if err != nil {
		return nil, mix, err
	}
	return &out.Res, mix, nil
}

// Figure7 reproduces the MID3 timeline: per-epoch bus frequency,
// per-application CPI, and scaled channel utilization, showing the
// policy reacting to apsi's phase change.
func (p Params) Figure7() (Report, error) {
	res, mix, err := p.timeline("MID3", config.Default().Cores)
	if err != nil {
		return Report{}, err
	}
	t := stats.Table{
		Title: "Figure 7: timeline of MID3 workload (MemScale)",
		Columns: []string{"t (ms)", "BusFreq", "CPI " + mix.Apps[0], "CPI " + mix.Apps[1],
			"CPI " + mix.Apps[2], "CPI " + mix.Apps[3], "ch0 util", "ch1 util", "ch2 util", "ch3 util"},
		Notes: []string{"apsi's phase change forces the frequency back up mid-run"},
	}
	addTimelineRows(&t, res, mix)
	return Report{ID: "figure7", Title: "MID3 timeline", Table: t}, nil
}

// Figure8 reproduces the MEM4 timeline on an 8-core system, where the
// policy oscillates between two adjacent frequencies, synthesizing a
// "virtual frequency" between ladder points.
func (p Params) Figure8() (Report, error) {
	res, mix, err := p.timeline("MEM4", 8)
	if err != nil {
		return Report{}, err
	}
	t := stats.Table{
		Title: "Figure 8: timeline of MEM4 workload on 8 cores (MemScale)",
		Columns: []string{"t (ms)", "BusFreq", "CPI " + mix.Apps[0], "CPI " + mix.Apps[1],
			"CPI " + mix.Apps[2], "CPI " + mix.Apps[3], "ch0 util", "ch1 util", "ch2 util", "ch3 util"},
		Notes: []string{"adjacent-frequency oscillation approximates a virtual frequency"},
	}
	addTimelineRows(&t, res, mix)
	distinct := map[config.FreqMHz]int{}
	for _, ep := range res.Epochs {
		distinct[ep.Freq]++
	}
	t.Notes = append(t.Notes, fmt.Sprintf("distinct frequencies used: %d", len(distinct)))
	return Report{ID: "figure8", Title: "MEM4 timeline", Table: t}, nil
}

func addTimelineRows(t *stats.Table, res *sim.Result, mix workload.Mix) {
	for _, ep := range res.Epochs {
		// Average CPI across each application's instances.
		perApp := ep.PerAppCPI(mix.Assignment)
		row := []string{
			fmt.Sprintf("%.0f", ep.End.Milliseconds()),
			ep.Freq.String(),
		}
		for _, app := range mix.Apps {
			row = append(row, stats.F2(perApp[app]))
		}
		for _, u := range ep.ChannelUtil {
			row = append(row, stats.Pct(u))
		}
		t.AddRow(row...)
	}
}
