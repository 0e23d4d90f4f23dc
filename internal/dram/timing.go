// Package dram models JEDEC DDR3 devices at the fidelity the paper's
// memory-system simulator uses: per-bank state machines with lumped
// activate/CAS/precharge service times, tRRD/tFAW activation windows,
// rank-granularity precharge powerdown, periodic refresh, and the
// state-duration accounting the Micron power model consumes.
//
// The package is passive: the memory controller (internal/memctrl)
// drives every transition and owns event scheduling. That split
// mirrors real hardware, where DRAM devices only obey commands.
package dram

import "memscale/internal/config"

// Resolved holds the device timing parameters quantized to whole
// clock cycles at a specific operating point.
//
// Device-core parameters (tRCD, tRP, tCL, ...) are fixed wall-clock
// durations rounded up to whole DIMM-clock cycles, so they grow
// slightly as the clock slows (quantization), while burst and MC
// processing times are cycle counts and scale linearly with frequency
// — exactly the behaviour Section 2.2 describes.
type Resolved struct {
	BusFreq config.FreqMHz // channel frequency

	TRCD   config.Time
	TRP    config.Time
	TCL    config.Time
	TRAS   config.Time
	TRTP   config.Time
	TRRD   config.Time
	TFAW   config.Time
	TRFC   config.Time
	TXP    config.Time
	TXPDLL config.Time

	Burst    config.Time // cache-line transfer on the channel
	DevBurst config.Time // cache-line transfer at the device clock
	MC       config.Time // memory-controller processing per request

	RefreshInterval config.Time // tREFI
}

// Resolve quantizes t at the given bus and device frequencies.
// Pass dev == bus for a conventional (lock-step) memory system; a
// lower dev models Decoupled DIMMs.
func Resolve(t config.DDR3Timing, bus, dev config.FreqMHz) Resolved {
	q := dev.QuantizeCeil
	return Resolved{
		BusFreq: bus,

		TRCD:   q(t.TRCD),
		TRP:    q(t.TRP),
		TCL:    q(t.TCL),
		TRAS:   q(t.TRAS),
		TRTP:   q(t.TRTP),
		TRRD:   q(t.TRRD),
		TFAW:   q(t.TFAW),
		TRFC:   q(t.TRFC),
		TXP:    q(t.TXP),
		TXPDLL: q(t.TXPDLL),

		Burst:    t.BurstTime(bus),
		DevBurst: t.BurstTime(dev),
		MC:       t.MCTime(bus),

		RefreshInterval: t.RefreshInterval(),
	}
}

// AccessKind classifies a DRAM access by row-buffer outcome; it maps
// one-to-one onto the paper's RBHC/CBMC/OBMC counters.
type AccessKind int

// Access kinds (Section 3.1 / Equation 6).
const (
	// RowHit: the row was already open (tCL only).
	RowHit AccessKind = iota
	// ClosedMiss: the bank was precharged (tRCD + tCL). Under
	// closed-page management this is the common case.
	ClosedMiss
	// OpenMiss: another row was open and must be precharged first
	// (tRP + tRCD + tCL).
	OpenMiss
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case RowHit:
		return "row-hit"
	case ClosedMiss:
		return "closed-miss"
	case OpenMiss:
		return "open-miss"
	default:
		return "unknown"
	}
}

// Latency returns the device service latency for an access of kind k
// under timing r, excluding powerdown exit and queueing.
func (r *Resolved) Latency(k AccessKind) config.Time {
	switch k {
	case RowHit:
		return r.TCL
	case ClosedMiss:
		return r.TRCD + r.TCL
	case OpenMiss:
		return r.TRP + r.TRCD + r.TCL
	default:
		panic("dram: unknown access kind")
	}
}
