package exp

import (
	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/power"
	"memscale/internal/sim"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// futureMixes are deliberately heterogeneous pairings for the
// per-channel study: with OS page placement pinning each application
// to its own channel, channel loads differ wildly, which is exactly
// where per-channel DFS can beat uniform scaling.
var futureMixes = []workload.Mix{
	{Name: "HET1", Class: workload.ClassMID, Apps: [4]string{"swim", "eon", "art", "crafty"}},
	{Name: "HET2", Class: workload.ClassMID, Apps: [4]string{"equake", "perlbmk", "mgrid", "gzip"}},
}

// futureRun runs one governor over partitioned streams and returns the
// result.
func (p Params) futureRun(mix workload.Mix, mkGov func(*config.Config, float64) sim.Governor, nonMem float64) (sim.Result, error) {
	cfg := config.Default()
	if p.Gamma > 0 {
		cfg.Policy.Gamma = p.Gamma
	}
	streams, err := mix.PartitionedStreams(&cfg)
	if err != nil {
		return sim.Result{}, err
	}
	var gov sim.Governor
	if mkGov != nil {
		gov = mkGov(&cfg, nonMem)
	}
	s, err := sim.New(cfg, streams, sim.Options{Governor: gov, NonMemPower: nonMem})
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunForContext(p.ctx(), p.runDuration(&cfg))
}

// FutureWork reproduces the Section 6 extension study: per-channel
// frequency selection on channel-partitioned workloads, against the
// uniform policy and the unmanaged baseline.
func (p Params) FutureWork() (Report, error) {
	t := stats.Table{
		Title: "Section 6 future work: per-channel DFS on channel-partitioned workloads",
		Columns: []string{"Workload", "Policy", "System Energy Reduction",
			"Memory Energy Reduction", "Worst CPI Increase"},
		Notes: []string{
			"each application's pages are pinned to one channel (OS placement)",
			"per-channel DFS slows lightly loaded channels below the uniform choice",
		},
	}
	for _, mix := range futureMixes {
		base, err := p.futureRun(mix, nil, 0)
		if err != nil {
			return Report{}, err
		}
		cfg := config.Default()
		nonMem := power.NewModel(&cfg).RestOfSystemPower(base.DIMMAvgWatts)

		variants := []struct {
			name string
			mk   func(*config.Config, float64) sim.Governor
		}{
			{"MemScale (uniform)", func(cfg *config.Config, nm float64) sim.Governor {
				return core.NewPolicy(cfg, core.Options{NonMemPower: nm, Gamma: p.Gamma})
			}},
			{"MemScale (per-channel)", func(cfg *config.Config, nm float64) sim.Governor {
				return core.NewPerChannelPolicy(cfg, core.Options{NonMemPower: nm, Gamma: p.Gamma})
			}},
		}
		for _, v := range variants {
			res, err := p.futureRun(mix, v.mk, nonMem)
			if err != nil {
				return Report{}, err
			}
			out := Outcome{Mix: mix, Policy: v.name, NonMem: nonMem, Base: base, Res: res}
			_, worst := out.CPIIncrease()
			t.AddRow(mix.Name, v.name, stats.Pct(out.SystemSavings()),
				stats.Pct(out.MemorySavings()), stats.Pct(worst))
			p.logf("  futurework %s %s: sys %s", mix.Name, v.name, stats.Pct(out.SystemSavings()))
		}
	}
	return Report{ID: "futurework", Title: "Per-channel DFS extension", Table: t}, nil
}

// VerifyPartitioning is a self-check used by tests and docs: it
// confirms partitioned streams confine each application to its
// channel.
func VerifyPartitioning(cfg *config.Config, mix workload.Mix, draws int) (map[string]map[int]int, error) {
	streams, err := mix.PartitionedStreams(cfg)
	if err != nil {
		return nil, err
	}
	spread := map[string]map[int]int{}
	for core, s := range streams {
		app := mix.Assignment(core)
		if spread[app] == nil {
			spread[app] = map[int]int{}
		}
		for i := 0; i < draws; i++ {
			a := s.Next()
			spread[app][a.Loc.Channel]++
			if a.Writeback {
				spread[app][a.WBLoc.Channel]++
			}
		}
	}
	return spread, nil
}
