package exp

import (
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// PolicyComparison runs every Section 4.2.3 scheme on the MID mixes
// and returns the outcomes grouped by scheme, in presentation order.
// Figures 9, 10, and 11 all render from this one grid. The whole
// scheme x mix grid executes concurrently on the sweep engine; all
// schemes share the four memoized MID baselines.
func (p Params) PolicyComparison() (map[string][]Outcome, []string, error) {
	specs := policies.Alternatives()
	mixes := workload.ByClass(workload.ClassMID)
	names := make([]string, len(specs))
	jobs := make([]runner.Job, 0, len(specs)*len(mixes))
	for i, spec := range specs {
		names[i] = spec.Name
		for _, mix := range mixes {
			jobs = append(jobs, p.job(nil, mix, spec))
		}
	}
	outs, err := p.runGrid(jobs)
	if err != nil {
		return nil, nil, err
	}
	grid := map[string][]Outcome{}
	for i, spec := range specs {
		grid[spec.Name] = outs[i*len(mixes) : (i+1)*len(mixes)]
	}
	return grid, names, nil
}

// Figure9 reports average energy savings per scheme over the MID
// mixes.
func Figure9(grid map[string][]Outcome, names []string) Report {
	t := stats.Table{
		Title:   "Figure 9: energy savings by policy (MID workload average)",
		Columns: []string{"Policy", "Full System Energy", "Memory System Energy"},
	}
	for _, name := range names {
		var sys, mem stats.Series
		for _, out := range grid[name] {
			sys.Add(out.SystemSavings())
			mem.Add(out.MemorySavings())
		}
		t.AddRow(name, stats.Pct(sys.Mean()), stats.Pct(mem.Mean()))
	}
	return Report{ID: "figure9", Title: "Policy energy savings", Table: t}
}

// Figure10 reports the system energy breakdown per scheme, normalized
// to the baseline system's energy.
func Figure10(grid map[string][]Outcome, names []string) Report {
	t := stats.Table{
		Title:   "Figure 10: system energy breakdown by policy (normalized to baseline)",
		Columns: []string{"Policy", "DRAM", "PLL/Reg", "MC", "Rest of system", "Total"},
	}
	addRow := func(name string, outs []Outcome, useBase bool) {
		var dram, pll, mc, rest stats.Series
		for _, out := range outs {
			baseTotal := out.SystemEnergy(out.Base)
			r := out.Res
			if useBase {
				r = out.Base
			}
			dram.Add(r.Memory.DRAM() / baseTotal)
			pll.Add(r.Memory.PLLReg / baseTotal)
			mc.Add(r.Memory.MC / baseTotal)
			rest.Add(out.NonMem * r.Duration.Seconds() / baseTotal)
		}
		total := dram.Mean() + pll.Mean() + mc.Mean() + rest.Mean()
		t.AddRow(name, stats.F3(dram.Mean()), stats.F3(pll.Mean()),
			stats.F3(mc.Mean()), stats.F3(rest.Mean()), stats.F3(total))
	}
	if len(names) > 0 {
		addRow("Baseline", grid[names[0]], true)
	}
	for _, name := range names {
		addRow(name, grid[name], false)
	}
	return Report{ID: "figure10", Title: "Energy breakdown by policy", Table: t}
}

// Figure11 reports CPI overheads per scheme over the MID mixes.
func Figure11(grid map[string][]Outcome, names []string) Report {
	t := stats.Table{
		Title:   "Figure 11: CPI overhead by policy (MID workloads)",
		Columns: []string{"Policy", "Multiprogram Average", "Worst Program in Mix"},
	}
	for _, name := range names {
		var avg stats.Series
		worst := 0.0
		for _, out := range grid[name] {
			a, w := out.CPIIncrease()
			avg.Add(a)
			if w > worst {
				worst = w
			}
		}
		t.AddRow(name, stats.Pct(avg.Mean()), stats.Pct(worst))
	}
	return Report{ID: "figure11", Title: "CPI overhead by policy", Table: t}
}

// Figures9To11 runs the policy-comparison grid and renders all three
// figures from it.
func (p Params) Figures9To11() ([]Report, error) {
	grid, names, err := p.PolicyComparison()
	if err != nil {
		return nil, err
	}
	return []Report{Figure9(grid, names), Figure10(grid, names), Figure11(grid, names)}, nil
}
