package exp

import (
	"fmt"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/runner"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// sensitivityRow runs MemScale on the MID mixes (concurrently) under a
// configuration variant and returns (system savings mean, worst CPI
// increase).
func (p Params) sensitivityRow(mutate func(*config.Config)) (float64, float64, error) {
	mixes := workload.ByClass(workload.ClassMID)
	jobs := make([]runner.Job, 0, len(mixes))
	for _, mix := range mixes {
		jobs = append(jobs, p.job(mutate, mix, policies.MemScale))
	}
	outs, err := p.runGrid(jobs)
	if err != nil {
		return 0, 0, err
	}
	var sys stats.Series
	worst := 0.0
	for _, out := range outs {
		sys.Add(out.SystemSavings())
		if _, w := out.CPIIncrease(); w > worst {
			worst = w
		}
	}
	return sys.Mean(), worst, nil
}

// Figure12 sweeps the maximum allowed performance degradation
// (1, 5, 10, 15%) on the MID mixes.
func (p Params) Figure12() (Report, error) {
	t := stats.Table{
		Title:   "Figure 12: impact of CPI bound (MID workloads)",
		Columns: []string{"Bound", "System Energy Reduction", "Worst-case CPI Increase"},
		Notes:   []string{"beyond ~10-15% the energy-optimal frequency stops falling"},
	}
	for _, gamma := range []float64{0.01, 0.05, 0.10, 0.15} {
		q := p
		q.Gamma = gamma
		sys, worst, err := q.sensitivityRow(nil)
		if err != nil {
			return Report{}, err
		}
		t.AddRow(fmt.Sprintf("%.0f%% bound", gamma*100), stats.Pct(sys), stats.Pct(worst))
	}
	return Report{ID: "figure12", Title: "CPI bound sensitivity", Table: t}, nil
}

// Figure13 sweeps the channel count (2, 3, 4).
func (p Params) Figure13() (Report, error) {
	t := stats.Table{
		Title:   "Figure 13: impact of number of channels (MID workloads)",
		Columns: []string{"Channels", "System Energy Reduction", "Worst-case CPI Increase"},
		Notes:   []string{"fewer channels approximate greater per-channel traffic"},
	}
	for _, ch := range []int{4, 3, 2} {
		ch := ch
		sys, worst, err := p.sensitivityRow(func(c *config.Config) { c.Channels = ch })
		if err != nil {
			return Report{}, err
		}
		t.AddRow(fmt.Sprintf("%d channels", ch), stats.Pct(sys), stats.Pct(worst))
	}
	return Report{ID: "figure13", Title: "Channel-count sensitivity", Table: t}, nil
}

// Figure14 sweeps the DIMM share of total server power (30, 40, 50%).
func (p Params) Figure14() (Report, error) {
	t := stats.Table{
		Title:   "Figure 14: impact of fraction of memory power (MID workloads)",
		Columns: []string{"Memory fraction", "System Energy Reduction", "Worst-case CPI Increase"},
	}
	for _, frac := range []float64{0.30, 0.40, 0.50} {
		frac := frac
		sys, worst, err := p.sensitivityRow(func(c *config.Config) { c.MemPowerFraction = frac })
		if err != nil {
			return Report{}, err
		}
		t.AddRow(fmt.Sprintf("%.0f%% Mem", frac*100), stats.Pct(sys), stats.Pct(worst))
	}
	return Report{ID: "figure14", Title: "Memory power fraction sensitivity", Table: t}, nil
}

// Figure15 sweeps the power proportionality of the MC and DIMM
// registers: idle power at 0, 50, and 100% of peak.
func (p Params) Figure15() (Report, error) {
	t := stats.Table{
		Title:   "Figure 15: impact of MC/register power proportionality (MID workloads)",
		Columns: []string{"Idle power", "System Energy Reduction", "Worst-case CPI Increase"},
		Notes:   []string{"less proportional components leave MemScale more power to scale away"},
	}
	for _, idle := range []float64{0.0, 0.5, 1.0} {
		idle := idle
		sys, worst, err := p.sensitivityRow(func(c *config.Config) {
			c.Power.MCIdleW = idle * c.Power.MCPeakW
			c.Power.RegisterIdleW = idle * c.Power.RegisterPeakW
		})
		if err != nil {
			return Report{}, err
		}
		t.AddRow(fmt.Sprintf("%.0f%% Idle Power", idle*100), stats.Pct(sys), stats.Pct(worst))
	}
	return Report{ID: "figure15", Title: "Power proportionality sensitivity", Table: t}, nil
}

// SensitivityExtra reproduces the remaining Section 4.2.4 studies:
// a 32-core configuration and the epoch/profiling length sweeps.
func (p Params) SensitivityExtra() (Report, error) {
	t := stats.Table{
		Title:   "Section 4.2.4 extras (MID workloads)",
		Columns: []string{"Variant", "System Energy Reduction", "Worst-case CPI Increase"},
	}
	add := func(label string, mutate func(*config.Config)) error {
		sys, worst, err := p.sensitivityRow(mutate)
		if err != nil {
			return err
		}
		t.AddRow(label, stats.Pct(sys), stats.Pct(worst))
		return nil
	}
	if err := add("32 cores, 4 channels", func(c *config.Config) { c.Cores = 32 }); err != nil {
		return Report{}, err
	}
	for _, ms := range []int{1, 5, 10} {
		ms := ms
		label := fmt.Sprintf("epoch %d ms", ms)
		// Keep total simulated time comparable across epoch lengths.
		q := p
		q.Epochs = p.Epochs * 5 / ms
		if q.Epochs < 2 {
			q.Epochs = 2
		}
		sys, worst, err := q.sensitivityRow(func(c *config.Config) {
			c.Policy.EpochLength = config.Time(ms) * config.Millisecond
		})
		if err != nil {
			return Report{}, err
		}
		t.AddRow(label, stats.Pct(sys), stats.Pct(worst))
	}
	for _, us := range []int{100, 300, 500} {
		us := us
		if err := add(fmt.Sprintf("profiling %d us", us), func(c *config.Config) {
			c.Policy.ProfilingLength = config.Time(us) * config.Microsecond
		}); err != nil {
			return Report{}, err
		}
	}
	return Report{ID: "sensitivity-extra", Title: "Epoch/profiling/core-count sensitivity", Table: t}, nil
}

// ByClassSummary runs MemScale on all mixes of the named class and
// summarizes savings; used by the All() driver for per-class averages
// corresponding to the text of Section 4.2.1.
func (p Params) ByClassSummary(class workload.Class) (Report, error) {
	t := stats.Table{
		Title:   fmt.Sprintf("MemScale summary for %s workloads", class),
		Columns: []string{"Workload", "System", "Memory", "Avg CPI inc", "Worst CPI inc"},
	}
	var jobs []runner.Job
	for _, mix := range workload.ByClass(class) {
		jobs = append(jobs, p.job(nil, mix, policies.MemScale))
	}
	outs, err := p.runGrid(jobs)
	if err != nil {
		return Report{}, err
	}
	for _, out := range outs {
		a, w := out.CPIIncrease()
		t.AddRow(out.Mix.Name, stats.Pct(out.SystemSavings()), stats.Pct(out.MemorySavings()),
			stats.Pct(a), stats.Pct(w))
	}
	return Report{ID: "class-" + class.String(), Title: t.Title, Table: t}, nil
}
