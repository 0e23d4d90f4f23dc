// Package power implements the memory-subsystem power and energy
// models of the paper: a Micron-style DDR3 device model driven by the
// rank state durations the DRAM layer accounts (background,
// activate/precharge, read/write, termination, refresh), the
// register/PLL devices on each DIMM, and the DVFS-scaled memory
// controller (Sections 2.1, 2.2 and 4.1).
//
// The same pure functions serve two masters: the simulator's energy
// integration (ground truth) and the OS policy's what-if estimates at
// candidate frequencies (Section 3.3). Sharing the model mirrors the
// paper, where the OS instantiates the very power model the evaluation
// uses, fed by hardware counters.
package power

import (
	"memscale/internal/config"
	"memscale/internal/dram"
)

// Breakdown is energy (joules) split by the Figure 2 / Figure 10
// component categories.
type Breakdown struct {
	Background  float64 // DRAM background (standby + powerdown states)
	ActPre      float64 // DRAM activate/precharge
	ReadWrite   float64 // DRAM column read/write bursts
	Termination float64 // DRAM on-die termination of other ranks' bursts
	Refresh     float64 // DRAM refresh
	PLLReg      float64 // DIMM register + PLL devices
	MC          float64 // memory controller
}

// DRAM returns the energy consumed inside the DRAM chips.
func (b Breakdown) DRAM() float64 {
	return b.Background + b.ActPre + b.ReadWrite + b.Termination + b.Refresh
}

// Memory returns the total memory-subsystem energy (DRAM + DIMM
// support devices + memory controller).
func (b Breakdown) Memory() float64 { return b.DRAM() + b.PLLReg + b.MC }

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Background += o.Background
	b.ActPre += o.ActPre
	b.ReadWrite += o.ReadWrite
	b.Termination += o.Termination
	b.Refresh += o.Refresh
	b.PLLReg += o.PLLReg
	b.MC += o.MC
}

// Scale returns b with every component multiplied by k.
func (b Breakdown) Scale(k float64) Breakdown {
	return Breakdown{
		Background:  b.Background * k,
		ActPre:      b.ActPre * k,
		ReadWrite:   b.ReadWrite * k,
		Termination: b.Termination * k,
		Refresh:     b.Refresh * k,
		PLLReg:      b.PLLReg * k,
		MC:          b.MC * k,
	}
}

// ChannelSlice is one channel's share of an accounting interval.
type ChannelSlice struct {
	// DRAM is the sum of the channel's ranks' flushed accounts.
	DRAM dram.Account

	// Busy is the channel bus occupancy (burst time); it drives
	// register and MC utilization.
	Busy config.Time
}

// Interval is everything the model needs to convert one stretch of
// simulation at a fixed operating point into energy.
type Interval struct {
	Duration config.Time

	// BusFreq is the operating point: every channel and DIMM runs at
	// it, the device clock is config.DevFreq of it, and the memory
	// controller clock config.MCFreq.
	BusFreq config.FreqMHz

	Channels []ChannelSlice
}

// DRAMTotal returns the summed account across channels.
func (iv Interval) DRAMTotal() dram.Account {
	var total dram.Account
	for i := range iv.Channels {
		total.Add(iv.Channels[i].DRAM)
	}
	return total
}

// Model evaluates the power equations for one system configuration.
type Model struct {
	cfg *config.Config
}

// NewModel builds a power model for configuration c.
func NewModel(c *config.Config) *Model { return &Model{cfg: c} }

// chipWatts converts a per-chip current (mA) to per-rank watts.
func (m *Model) chipWatts(mA float64) float64 {
	return mA / 1000 * m.cfg.Currents.VDD * float64(m.cfg.ChipsPerRank)
}

// bgScale returns the background-power frequency scaling factor for a
// device clock f: the clocked fraction scales linearly with frequency
// (Section 2.2), the rest is frequency-independent.
func (m *Model) bgScale(f config.FreqMHz) float64 {
	lin := float64(f) / float64(config.MaxBusFreq)
	s := m.cfg.BackgroundFreqScaling
	return s*lin + (1 - s)
}

// Energy evaluates the full memory-subsystem energy of one interval
// at its operating point.
func (m *Model) Energy(iv Interval) Breakdown {
	cur := m.cfg.Currents
	p := m.cfg.Power
	dur := iv.Duration.Seconds()
	tRC := (m.cfg.Timing.TRAS + m.cfg.Timing.TRP).Seconds()
	scale := m.bgScale(m.cfg.DevFreq(iv.BusFreq))
	fScale := float64(iv.BusFreq) / float64(config.MaxBusFreq)

	var b Breakdown
	var utilSum float64
	for i := range iv.Channels {
		ch := &iv.Channels[i]
		a := &ch.DRAM

		// Background: state durations times the per-rank background
		// power. Standby states are clocked, so they scale with the
		// device frequency; powerdown states have CKE low and do not.
		b.Background += a.ActiveStandby.Seconds()*m.chipWatts(cur.IDDActiveStandby)*scale +
			a.PrechargeStandby.Seconds()*m.chipWatts(cur.IDDPrechargeStandby)*scale +
			a.ActivePD.Seconds()*m.chipWatts(cur.IDDActivePowerdown) +
			a.PrechargePD.Seconds()*m.chipWatts(cur.IDDPrechargePD) +
			a.PrechargePDSlow.Seconds()*m.chipWatts(cur.IDDPrechargeSlowPD)

		// Activate/precharge: fixed energy per activation, spread over
		// the device-physics tRC window — frequency independent.
		b.ActPre += float64(a.Activations) * m.chipWatts(cur.IDDActPre) * tRC

		// Read/write: incremental current over active standby while
		// the rank drives the bus. Slower buses hold the current
		// longer, so the energy per access grows as frequency drops
		// (Section 2.2).
		rwWatts := m.chipWatts(cur.IDDReadWrite - cur.IDDActiveStandby)
		b.ReadWrite += (a.ReadBurst + a.WriteBurst).Seconds() * rwWatts

		// Termination on the other ranks of the channel.
		b.Termination += a.TermBurst.Seconds() * p.TerminationPerRankW

		// Refresh: full refresh current during tRFC windows.
		b.Refresh += a.Refreshing.Seconds() * m.chipWatts(cur.IDDRefresh)

		// Register + PLL per DIMM; both scale linearly with channel
		// frequency, the register additionally with utilization.
		util := utilization(ch.Busy, iv.Duration)
		utilSum += util
		regW := (p.RegisterIdleW + (p.RegisterPeakW-p.RegisterIdleW)*util) * fScale
		pllW := p.PLLW * fScale
		b.PLLReg += float64(m.cfg.DIMMsPerChannel) * (regW + pllW) * dur
	}

	// Memory controller: utilization-linear between idle and peak,
	// scaled by V^2*f across the DVFS range.
	meanUtil := 0.0
	if len(iv.Channels) > 0 {
		meanUtil = utilSum / float64(len(iv.Channels))
	}
	b.MC = m.MCPower(iv.BusFreq, meanUtil) * dur

	return b
}

// MCPower returns the memory-controller power at the given bus
// frequency and average channel utilization.
func (m *Model) MCPower(bus config.FreqMHz, util float64) float64 {
	p := m.cfg.Power
	base := p.MCIdleW + (p.MCPeakW-p.MCIdleW)*clamp01(util)
	return base * m.MCVFScale(bus)
}

// MCVFScale returns the V^2*f scaling factor of the MC at the given
// bus frequency, relative to the nominal operating point. The MC
// voltage tracks its frequency linearly across the configured range
// (Section 4.1: 0.65-1.2 V over the MC frequency span).
func (m *Model) MCVFScale(bus config.FreqMHz) float64 {
	v := m.MCVoltage(bus)
	vMax := m.cfg.Power.MCVMax
	f := float64(config.MCFreq(bus))
	fMax := float64(config.MCFreq(config.MaxBusFreq))
	return (v * v * f) / (vMax * vMax * fMax)
}

// MCVoltage returns the MC supply voltage at the given bus frequency.
func (m *Model) MCVoltage(bus config.FreqMHz) float64 {
	p := m.cfg.Power
	fMin := float64(config.MCFreq(config.MinBusFreq))
	fMax := float64(config.MCFreq(config.MaxBusFreq))
	f := float64(config.MCFreq(bus))
	frac := (f - fMin) / (fMax - fMin)
	return p.MCVMin + frac*(p.MCVMax-p.MCVMin)
}

// RestOfSystemPower derives the fixed non-memory power from the
// average baseline DIMM power, using the configured memory power
// fraction (Section 4.1: DIMMs are 40% of system power, so the rest
// of the system is 1.5x the DIMM average).
func (m *Model) RestOfSystemPower(dimmAvgWatts float64) float64 {
	frac := m.cfg.MemPowerFraction
	return dimmAvgWatts * (1 - frac) / frac
}

func utilization(busy, total config.Time) float64 {
	if total <= 0 {
		return 0
	}
	return clamp01(float64(busy) / float64(total))
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
