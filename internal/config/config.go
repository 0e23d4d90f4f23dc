package config

import "fmt"

// PowerdownMode selects the idle-rank powerdown policy the memory
// controller applies when all banks of a rank are closed.
type PowerdownMode int

// Powerdown modes evaluated in Section 4.2.3.
const (
	PowerdownNone PowerdownMode = iota // never power down (baseline)
	PowerdownFast                      // fast-exit precharge powerdown (tXP)
	PowerdownSlow                      // slow-exit precharge powerdown (tXPDLL)
)

// String names the powerdown mode.
func (m PowerdownMode) String() string {
	switch m {
	case PowerdownNone:
		return "none"
	case PowerdownFast:
		return "fast-pd"
	case PowerdownSlow:
		return "slow-pd"
	default:
		return fmt.Sprintf("PowerdownMode(%d)", int(m))
	}
}

// MemPowerParams holds the non-DRAM memory-subsystem power parameters
// (Section 4.1): the register and PLL devices on each DIMM and the
// integrated memory controller.
type MemPowerParams struct {
	// Register device per DIMM, at nominal frequency: power scales
	// linearly with utilization between idle and peak, and linearly
	// with channel frequency.
	RegisterIdleW float64
	RegisterPeakW float64

	// PLL device per DIMM at nominal frequency: does not scale with
	// utilization, scales linearly with channel frequency.
	PLLW float64

	// Memory controller at nominal frequency and voltage: scales
	// linearly with utilization between idle and peak, and with
	// V^2 * f as the MC is voltage/frequency scaled.
	MCIdleW float64
	MCPeakW float64

	// MC voltage range across the MC frequency range (Section 4.1):
	// voltage scales linearly with MC frequency from VMin at the
	// lowest MC frequency to VMax at the highest.
	MCVMin float64
	MCVMax float64

	// Termination power drawn by the other ranks on a channel while a
	// burst is in flight, per rank (watts at any frequency; power is
	// frequency-independent but slower bursts last longer, so
	// termination energy grows as frequency drops — Section 2.2).
	TerminationPerRankW float64
}

// DefaultMemPowerParams returns the Section 4.1 power parameters:
// registers 0.25–0.5 W, MC 7.5–15 W, MC voltage 0.65–1.2 V.
func DefaultMemPowerParams() MemPowerParams {
	return MemPowerParams{
		RegisterIdleW:       0.25,
		RegisterPeakW:       0.50,
		PLLW:                0.50,
		MCIdleW:             7.5,
		MCPeakW:             15.0,
		MCVMin:              0.65,
		MCVMax:              1.20,
		TerminationPerRankW: 0.65,
	}
}

// PolicyParams holds the OS energy-management policy settings
// (Sections 3.2 and 4.1).
type PolicyParams struct {
	EpochLength     Time    // OS quantum; default 5 ms
	ProfilingLength Time    // profiling window at epoch start; default 300 us
	Gamma           float64 // maximum allowed performance degradation (0.10)

	// Frequency-transition penalty: memory is halted for
	// RelockCycles bus cycles (at the *new* frequency) plus
	// RelockExtra (Section 4.1: 512 cycles + 28 ns).
	RelockCycles int
	RelockExtra  Time
}

// DefaultPolicyParams returns the paper's default policy settings.
func DefaultPolicyParams() PolicyParams {
	return PolicyParams{
		EpochLength:     5 * Millisecond,
		ProfilingLength: 300 * Microsecond,
		Gamma:           0.10,
		RelockCycles:    512,
		RelockExtra:     28 * Nanosecond,
	}
}

// Config is the complete system configuration (Table 2 plus the
// Section 4.1 assumptions). The zero value is not usable; start from
// Default and adjust.
type Config struct {
	// CPU.
	Cores      int     // 16 in-order cores
	CPUFreqMHz FreqMHz // 4 GHz
	LineBytes  int     // cache line size (64 B)

	// Memory geometry.
	Channels        int // independent memory channels (4)
	DIMMsPerChannel int // 2
	RanksPerDIMM    int // 2
	ChipsPerRank    int // 9 for x8 with ECC
	BanksPerRank    int // 8
	RowBytes        int // row (page) size per rank, in bytes
	RowsPerBank     int // derived capacity knob

	Timing   DDR3Timing
	Currents DDR3Currents
	Power    MemPowerParams
	Policy   PolicyParams

	// BackgroundFreqScaling: fraction of DRAM background power that
	// scales linearly with DIMM frequency (the clocked interface
	// portion); the remainder is frequency-independent leakage and
	// refresh-adjacent circuitry. Section 2.2 models background power
	// as scaling linearly, so the default is 1.0.
	BackgroundFreqScaling float64

	// MemPowerFraction is the assumed contribution of the DIMMs to
	// total server power at the baseline (Section 4.1: 40%). It is
	// used to derive the fixed rest-of-system power.
	MemPowerFraction float64

	// Powerdown selects the rank idle-powerdown behaviour.
	Powerdown PowerdownMode

	// DecoupledDevFreq, when non-zero, models Decoupled DIMMs
	// (Zheng et al., ISCA'09): DRAM devices run at this fixed
	// frequency while the channel runs at the configured bus
	// frequency. Used by the Decoupled baseline only.
	DecoupledDevFreq FreqMHz

	// WritebackQueueCap is the per-channel writeback queue capacity;
	// reads yield to writes once the queue is half full (Section 4.1).
	WritebackQueueCap int
}

// Default returns the Table 2 configuration: a 16-core 4 GHz server
// with 4 DDR3-1600 channels, two dual-rank ECC DIMMs per channel.
func Default() Config {
	return Config{
		Cores:      16,
		CPUFreqMHz: 4000,
		LineBytes:  64,

		Channels:        4,
		DIMMsPerChannel: 2,
		RanksPerDIMM:    2,
		ChipsPerRank:    9,
		BanksPerRank:    8,
		RowBytes:        8192,
		RowsPerBank:     32768,

		Timing:   DefaultDDR3Timing(),
		Currents: DefaultDDR3Currents(),
		Power:    DefaultMemPowerParams(),
		Policy:   DefaultPolicyParams(),

		BackgroundFreqScaling: 1.0,
		MemPowerFraction:      0.40,
		Powerdown:             PowerdownNone,
		WritebackQueueCap:     32,
	}
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.CPUFreqMHz <= 0:
		return fmt.Errorf("config: CPUFreqMHz must be positive, got %d", c.CPUFreqMHz)
	case c.Channels <= 0:
		return fmt.Errorf("config: Channels must be positive, got %d", c.Channels)
	case c.DIMMsPerChannel <= 0 || c.RanksPerDIMM <= 0:
		return fmt.Errorf("config: DIMMs/ranks per channel must be positive")
	case c.BanksPerRank <= 0 || c.ChipsPerRank <= 0:
		return fmt.Errorf("config: banks/chips per rank must be positive")
	case c.BanksPerRank > 64:
		// The memory controller tracks a rank's deferred bank closes in
		// one 64-bit mask.
		return fmt.Errorf("config: BanksPerRank must be at most 64, got %d", c.BanksPerRank)
	case c.LineBytes <= 0 || c.RowBytes < c.LineBytes:
		return fmt.Errorf("config: RowBytes (%d) must be >= LineBytes (%d) > 0", c.RowBytes, c.LineBytes)
	case c.RowsPerBank <= 0:
		return fmt.Errorf("config: RowsPerBank must be positive")
	case c.MemPowerFraction <= 0 || c.MemPowerFraction >= 1:
		return fmt.Errorf("config: MemPowerFraction must be in (0,1), got %g", c.MemPowerFraction)
	case c.Policy.EpochLength <= 0 || c.Policy.ProfilingLength <= 0:
		return fmt.Errorf("config: epoch and profiling lengths must be positive")
	case c.Policy.ProfilingLength >= c.Policy.EpochLength:
		return fmt.Errorf("config: profiling window (%v) must be shorter than the epoch (%v)",
			c.Policy.ProfilingLength, c.Policy.EpochLength)
	case c.WritebackQueueCap <= 0:
		return fmt.Errorf("config: WritebackQueueCap must be positive")
	case c.DecoupledDevFreq != 0 && !ValidBusFrequency(c.DecoupledDevFreq):
		return fmt.Errorf("config: DecoupledDevFreq %v is not on the frequency ladder", c.DecoupledDevFreq)
	}
	return nil
}

// DevFreq returns the DRAM device clock paired with bus frequency bus:
// DecoupledDevFreq when set, else the bus frequency itself. memctrl
// and the power model both derive the device clock here.
func (c *Config) DevFreq(bus FreqMHz) FreqMHz {
	if c.DecoupledDevFreq != 0 {
		return c.DecoupledDevFreq
	}
	return bus
}

// RanksPerChannel returns the number of ranks sharing one channel.
func (c *Config) RanksPerChannel() int { return c.DIMMsPerChannel * c.RanksPerDIMM }

// TotalRanks returns the number of ranks in the system.
func (c *Config) TotalRanks() int { return c.Channels * c.RanksPerChannel() }

// TotalDIMMs returns the number of DIMMs in the system.
func (c *Config) TotalDIMMs() int { return c.Channels * c.DIMMsPerChannel }

// TotalBanks returns the number of independently schedulable banks.
func (c *Config) TotalBanks() int { return c.TotalRanks() * c.BanksPerRank }

// LinesPerRow returns the cache lines held by one open row.
func (c *Config) LinesPerRow() int { return c.RowBytes / c.LineBytes }

// CPUCyclesToTime converts CPU cycles to wall-clock time.
func (c *Config) CPUCyclesToTime(cycles float64) Time {
	return Time(cycles * float64(c.CPUFreqMHz.Period()))
}

// TimeToCPUCycles converts wall-clock time to CPU cycles.
func (c *Config) TimeToCPUCycles(t Time) float64 {
	return float64(t) / float64(c.CPUFreqMHz.Period())
}
