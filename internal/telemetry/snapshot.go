package telemetry

import (
	"memscale/internal/config"
	"memscale/internal/dram"
)

// Energy is a memory-subsystem energy breakdown in joules, split by
// the paper's Figure 2 / Figure 10 component categories. It mirrors
// the power package's Breakdown; telemetry keeps its own copy so the
// power layer can feed the recorder without an import cycle
// (power imports telemetry, never the reverse).
type Energy struct {
	Background  float64 `json:"background"`
	ActPre      float64 `json:"act_pre"`
	ReadWrite   float64 `json:"read_write"`
	Termination float64 `json:"termination"`
	Refresh     float64 `json:"refresh"`
	PLLReg      float64 `json:"pll_reg"`
	MC          float64 `json:"mc"`
}

// DRAM returns the energy consumed inside the DRAM chips.
func (e Energy) DRAM() float64 {
	return e.Background + e.ActPre + e.ReadWrite + e.Termination + e.Refresh
}

// Memory returns the total memory-subsystem energy.
func (e Energy) Memory() float64 { return e.DRAM() + e.PLLReg + e.MC }

// Add accumulates o into e.
func (e *Energy) Add(o Energy) {
	e.Background += o.Background
	e.ActPre += o.ActPre
	e.ReadWrite += o.ReadWrite
	e.Termination += o.Termination
	e.Refresh += o.Refresh
	e.PLLReg += o.PLLReg
	e.MC += o.MC
}

// EpochSnapshot is the per-epoch telemetry record: everything the
// simulator knows about one OS quantum, snapshotted at the epoch
// boundary. It is the single source for every per-epoch view — the
// public timeline sample, the Figure 7/8 drivers, and the JSONL
// export all alias or embed this type rather than copying fields.
type EpochSnapshot struct {
	Index int `json:"index"`

	// Start and End bound the epoch in simulated time.
	Start config.Time `json:"start_ps"`
	End   config.Time `json:"end_ps"`

	// Freq is the bus frequency every channel ran the epoch body at.
	Freq config.FreqMHz `json:"freq_mhz"`

	// WantFreq is the frequency the governor would have run absent any
	// external frequency cap (SetFrequencyCap): the pre-cap choice.
	// WantFreq > Freq marks a cap-constrained epoch — the signal
	// cluster-level power capping uses to find nodes that deserve a
	// promotion. Equal to Freq when uncapped.
	WantFreq config.FreqMHz `json:"want_freq_mhz,omitempty"`

	// CoreCPI is the epoch-local CPI per core; ChannelUtil the
	// epoch-local bus utilization per channel.
	CoreCPI     []float64 `json:"core_cpi"`
	ChannelUtil []float64 `json:"channel_util"`

	// Energy is the memory-subsystem energy consumed during the epoch
	// (profiling phase included).
	Energy Energy `json:"energy_j"`

	// Residency is the DRAM state-residency account of the epoch,
	// summed over all ranks: its Total() equals the epoch length
	// times the rank count when accounting is conservation-exact.
	Residency dram.Account `json:"residency_ps"`

	// Reads and Writebacks are the completed transfers of the epoch.
	Reads      uint64 `json:"reads"`
	Writebacks uint64 `json:"writebacks"`

	// HostNs is the host wall-clock nanoseconds the epoch took to
	// simulate (zero when telemetry is disabled; host time is the one
	// nondeterministic field and never feeds back into simulation).
	HostNs int64 `json:"host_ns,omitempty"`
}

// StartMs returns the epoch start in simulated milliseconds.
func (s EpochSnapshot) StartMs() float64 { return s.Start.Milliseconds() }

// EndMs returns the epoch end in simulated milliseconds.
func (s EpochSnapshot) EndMs() float64 { return s.End.Milliseconds() }

// BusFreqMHz returns the epoch's bus frequency as a plain int.
func (s EpochSnapshot) BusFreqMHz() int { return int(s.Freq) }

// MeanCPI returns the average per-core CPI of the epoch.
func (s EpochSnapshot) MeanCPI() float64 {
	if len(s.CoreCPI) == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.CoreCPI {
		sum += c
	}
	return sum / float64(len(s.CoreCPI))
}

// MeanUtil returns the average channel bus utilization of the epoch.
func (s EpochSnapshot) MeanUtil() float64 {
	if len(s.ChannelUtil) == 0 {
		return 0
	}
	var sum float64
	for _, u := range s.ChannelUtil {
		sum += u
	}
	return sum / float64(len(s.ChannelUtil))
}

// PerAppCPI averages the snapshot's per-core CPIs by application,
// using assign to map a core index to its application name (workloads
// stripe replicated apps across cores). Shared by the Figure 7/8
// timeline drivers and memscale-report.
func (s EpochSnapshot) PerAppCPI(assign func(core int) string) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for core, cpi := range s.CoreCPI {
		app := assign(core)
		sums[app] += cpi
		counts[app]++
	}
	out := make(map[string]float64, len(sums))
	for app, sum := range sums {
		out[app] = sum / float64(counts[app])
	}
	return out
}

// ResidencyFractions returns the snapshot's state residencies as
// fractions of accounted rank-time, in the fixed CSV column order:
// active standby, precharge standby, active powerdown, precharge
// powerdown (fast), precharge powerdown (slow), refreshing.
func (s EpochSnapshot) ResidencyFractions() [6]float64 {
	return residencyFractions(s.Residency)
}

func residencyFractions(a dram.Account) [6]float64 {
	total := float64(a.Total())
	if total == 0 {
		return [6]float64{}
	}
	return [6]float64{
		float64(a.ActiveStandby) / total,
		float64(a.PrechargeStandby) / total,
		float64(a.ActivePD) / total,
		float64(a.PrechargePD) / total,
		float64(a.PrechargePDSlow) / total,
		float64(a.Refreshing) / total,
	}
}

// ResidencyColumns names the ResidencyFractions entries, in order.
var ResidencyColumns = [6]string{
	"active_standby", "precharge_standby", "active_pd",
	"precharge_pd", "precharge_pd_slow", "refreshing",
}
