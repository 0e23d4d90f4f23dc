// Package core implements the paper's primary contribution: the
// MemScale OS energy-management policy (Sections 3.2-3.3). Each epoch
// it reads the Section 3.1 hardware counters gathered during a short
// profiling phase, predicts every application's CPI at all ten memory
// frequencies with the counter-based queueing model (Equations 2-9),
// predicts full-system energy with the shared Micron-style power model
// (Equation 10), and selects the frequency that minimizes the system
// energy ratio subject to each application's slack-adjusted
// performance target (Equation 1).
package core

import (
	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/memctrl"
	"memscale/internal/sim"
)

// PerfModel predicts per-core CPI as a function of memory frequency
// from one profiling window's counters (Equations 3-9).
type PerfModel struct {
	cfg     *config.Config
	timings map[config.FreqMHz]dram.Resolved

	// Per-window derived quantities.
	XiBank  float64 // 1 + BTO/BTC: bank queue factor including self
	XiBus   float64 // 1 + CTO/CTC: bus queue factor including self
	TDevice config.Time
	FitFreq config.FreqMHz // frequency the window was profiled at

	// Per-core quantities.
	Alpha  []float64 // LLC misses per instruction
	TPICpu []float64 // seconds per instruction on the CPU (Equation 2)
	CPIObs []float64 // measured CPI during the window
}

// NewPerfModel precomputes the per-frequency timing tables.
func NewPerfModel(cfg *config.Config) *PerfModel {
	m := &PerfModel{
		cfg:     cfg,
		timings: make(map[config.FreqMHz]dram.Resolved, len(config.BusFrequencies)),
	}
	for _, f := range config.BusFrequencies {
		m.timings[f] = dram.Resolve(cfg.Timing, f, cfg.DevFreq(f))
	}
	return m
}

// deviceTime evaluates Equation 6: the average in-device access
// latency implied by the row-buffer counters.
func (m *PerfModel) deviceTime(c memctrl.Counters, at dram.Resolved) config.Time {
	n := c.AccessCount()
	if n == 0 {
		return at.TRCD + at.TCL // closed-page default when idle
	}
	hit := float64(at.TCL) * float64(c.RBHC)
	cb := float64(at.TRCD+at.TCL) * float64(c.CBMC)
	ob := float64(at.TRP+at.TRCD+at.TCL) * float64(c.OBMC)
	pd := float64(at.TXP) * float64(c.EPDC)
	return config.Time((hit + cb + ob + pd) / float64(n))
}

// Fit extracts the model inputs from a profiling window. The window's
// frequency anchors the decomposition of measured CPI into CPU and
// memory time.
func (m *PerfModel) Fit(p sim.Profile) {
	c := p.Counters
	m.XiBank = 1 + c.BankQueueDepth()
	m.XiBus = 1 + c.ChannelQueueDepth()
	m.FitFreq = p.Interval.BusFreq
	at := m.timings[m.FitFreq]
	m.TDevice = m.deviceTime(c, at)

	n := len(p.Instr)
	m.Alpha = resize(m.Alpha, n)
	m.TPICpu = resize(m.TPICpu, n)
	m.CPIObs = resize(m.CPIObs, n)

	cycles := m.cfg.TimeToCPUCycles(p.Elapsed())
	tpiMemProf := m.TPIMem(m.FitFreq) // seconds
	for i := 0; i < n; i++ {
		instr := p.Instr[i]
		if instr <= 0 {
			m.Alpha[i] = 0
			m.TPICpu[i] = 0
			m.CPIObs[i] = 0
			continue
		}
		m.Alpha[i] = float64(c.TLM[i]) / instr
		m.CPIObs[i] = cycles / instr
		// Equation 2 inverted: time per instruction on the CPU is the
		// remainder after subtracting predicted memory time.
		tpi := p.Elapsed().Seconds() / instr
		cpuPart := tpi - m.Alpha[i]*tpiMemProf
		if cpuPart < 0 {
			cpuPart = 0
		}
		m.TPICpu[i] = cpuPart
	}
}

// TPIMem evaluates Equation 9 at frequency f: expected memory time per
// LLC-missing instruction, in seconds.
//
// The queueing factors were measured at the profiling frequency;
// queue depths grow with service time, so their excess over 1 is
// interpolated by the burst-time ratio — the "profiling at one more
// frequency and interpolating the queue size" modification Section
// 3.3 suggests for deep queues, which keeps the max-frequency estimate
// (and hence the slack target) honest for memory-bound workloads.
func (m *PerfModel) TPIMem(f config.FreqMHz) float64 {
	at := m.timings[f]
	ratio := 1.0
	if m.FitFreq != 0 && f != m.FitFreq {
		ratio = queueGrowth(float64(at.Burst) / float64(m.timings[m.FitFreq].Burst))
	}
	xiBank := 1 + (m.XiBank-1)*ratio
	xiBus := 1 + (m.XiBus-1)*ratio
	sBank := (at.MC + m.TDevice).Seconds()
	sBus := at.Burst.Seconds()
	return xiBank * (sBank + xiBus*sBus)
}

// queueGrowth maps a service-time ratio to a queue-depth scaling
// factor for the xi counters. The correction is deliberately
// asymmetric:
//
//   - Extrapolating downward (ratio > 1, slower candidate): keep the
//     measured depths (factor 1), as the paper does. Queue growth in
//     the closed 16-customer network is bounded by the population,
//     and the slack feedback absorbs the residual error.
//   - Extrapolating upward (ratio < 1, faster candidate — notably the
//     max-frequency estimate that anchors the slack target): shrink
//     the excess linearly. Queues measured at a low frequency are
//     deeper than they would be at nominal; without this shrink the
//     policy inflates T_MaxFreq and overshoots the CPI bound on
//     memory-bound mixes — exactly the queue-length misprediction
//     Section 4.2.3 reports and Section 3.3 suggests fixing by
//     interpolating queue sizes across frequencies.
func queueGrowth(serviceRatio float64) float64 {
	if serviceRatio >= 1 {
		return 1
	}
	return serviceRatio
}

// CPI predicts core i's CPI at frequency f (Equation 3).
func (m *PerfModel) CPI(i int, f config.FreqMHz) float64 {
	tpi := m.TPICpu[i] + m.Alpha[i]*m.TPIMem(f)
	return tpi * m.cfg.CPUFreqMHz.Hz()
}

// RelTime predicts the run-time of the profiled instruction mix at
// frequency f relative to frequency base (mean of per-core CPI
// ratios, model-to-model so profiling bias cancels).
func (m *PerfModel) RelTime(f, base config.FreqMHz) float64 {
	var sum float64
	n := 0
	for i := range m.Alpha {
		if m.CPIObs[i] <= 0 {
			continue
		}
		sum += m.CPI(i, f) / m.CPI(i, base)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Timing exposes the resolved timing table at f (for tests and the
// energy estimator).
func (m *PerfModel) Timing(f config.FreqMHz) dram.Resolved { return m.timings[f] }

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
