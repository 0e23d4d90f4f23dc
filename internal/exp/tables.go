package exp

import (
	"fmt"
	"strings"

	"memscale/internal/config"
	"memscale/internal/stats"
	"memscale/internal/workload"
)

// Table1 regenerates the workload table: it drives every mix's
// synthetic trace generators through the paper's per-core instruction
// budget and reports the aggregate RPKI/WPKI next to the paper's
// values (paper Table 1). The mixes are generated concurrently; the
// rows keep Table 1 order.
func (p Params) Table1() (Report, error) {
	t := stats.Table{
		Title:   "Table 1: workload descriptions (generated vs paper)",
		Columns: []string{"Name", "RPKI", "paper", "WPKI", "paper", "Applications (x4 each)"},
		Notes: []string{
			"generated over 100M instructions per core, as the paper's traces were",
		},
	}
	const target = float64(workload.Table1Instructions)
	type rates struct{ rpki, wpki float64 }
	rows := make([]rates, len(workload.Mixes))
	err := p.forEachMix(func(i int, mix workload.Mix) error {
		cfg := config.Default()
		streams, err := mix.Streams(&cfg)
		if err != nil {
			return err
		}
		var instr, reads, wbs uint64
		for _, s := range streams {
			for {
				s.Next()
				if in, _, _ := s.Stats(); float64(in) >= target {
					break
				}
			}
			in, rd, wb := s.Stats()
			instr += in
			reads += rd
			wbs += wb
		}
		rows[i] = rates{float64(reads) / float64(instr) * 1000, float64(wbs) / float64(instr) * 1000}
		return nil
	}, func(i int) {
		mix := workload.Mixes[i]
		p.logf("  table1 %s: RPKI %.2f (paper %.2f)", mix.Name, rows[i].rpki, mix.PaperRPKI)
	})
	if err != nil {
		return Report{}, err
	}
	for i, mix := range workload.Mixes {
		t.AddRow(mix.Name, stats.F2(rows[i].rpki), stats.F2(mix.PaperRPKI),
			stats.F2(rows[i].wpki), stats.F2(mix.PaperWPKI), strings.Join(mix.Apps[:], " "))
	}
	return Report{ID: "table1", Title: "Workload descriptions", Table: t}, nil
}

// Table2 prints the simulated system settings (paper Table 2).
func (p Params) Table2() Report {
	cfg := config.Default()
	t := stats.Table{
		Title:   "Table 2: main system settings",
		Columns: []string{"Feature", "Value"},
	}
	add := func(k, v string) { t.AddRow(k, v) }
	add("CPU cores", fmt.Sprintf("%d in-order, single thread, %d GHz", cfg.Cores, int(cfg.CPUFreqMHz)/1000))
	add("Cache block size", fmt.Sprintf("%d bytes", cfg.LineBytes))
	add("Memory configuration", fmt.Sprintf("%d DDR3 channels, %d DIMMs (%d ranks x %d banks) with ECC",
		cfg.Channels, cfg.TotalDIMMs(), cfg.TotalRanks(), cfg.BanksPerRank))
	tm := cfg.Timing
	add("tRCD, tRP, tCL", fmt.Sprintf("%v, %v, %v", tm.TRCD, tm.TRP, tm.TCL))
	add("tFAW", tm.TFAW.String())
	add("tRTP", tm.TRTP.String())
	add("tRAS", tm.TRAS.String())
	add("tRRD", tm.TRRD.String())
	add("Exit fast pd (tXP)", tm.TXP.String())
	add("Exit slow pd (tXPDLL)", tm.TXPDLL.String())
	add("Refresh period", tm.RefreshPeriod.String())
	cur := cfg.Currents
	add("Row buffer read, write", fmt.Sprintf("%.0f mA, %.0f mA", cur.IDDReadWrite, cur.IDDReadWrite))
	add("Activation-precharge", fmt.Sprintf("%.0f mA", cur.IDDActPre))
	add("Active standby", fmt.Sprintf("%.0f mA", cur.IDDActiveStandby))
	add("Active powerdown", fmt.Sprintf("%.0f mA", cur.IDDActivePowerdown))
	add("Precharge standby", fmt.Sprintf("%.0f mA", cur.IDDPrechargeStandby))
	add("Precharge powerdown", fmt.Sprintf("%.0f mA", cur.IDDPrechargePD))
	add("Refresh", fmt.Sprintf("%.0f mA", cur.IDDRefresh))
	add("VDD", fmt.Sprintf("%.3f V", cur.VDD))
	add("Bus frequencies (MHz)", "800 733 667 600 533 467 400 333 267 200")
	add("Register power", fmt.Sprintf("%.2f-%.2f W per DIMM", cfg.Power.RegisterIdleW, cfg.Power.RegisterPeakW))
	add("MC power", fmt.Sprintf("%.1f-%.1f W", cfg.Power.MCIdleW, cfg.Power.MCPeakW))
	add("MC voltage range", fmt.Sprintf("%.2f-%.2f V", cfg.Power.MCVMin, cfg.Power.MCVMax))
	add("Epoch / profiling", fmt.Sprintf("%v / %v", cfg.Policy.EpochLength, cfg.Policy.ProfilingLength))
	return Report{ID: "table2", Title: "Main system settings", Table: t}
}
