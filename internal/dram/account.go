package dram

import "memscale/internal/config"

// Account accumulates the state durations and event counts of one rank
// between flushes. It is exactly the information the Micron DDR3 power
// model needs (background state fractions, activation and refresh
// counts, burst occupancy) plus the paper's PTC/PTCKEL/ATCKEL counter
// inputs.
type Account struct {
	// Background state durations.
	ActiveStandby    config.Time // >= 1 bank open, CKE high
	PrechargeStandby config.Time // all banks closed, CKE high
	ActivePD         config.Time // >= 1 bank open, CKE low
	PrechargePD      config.Time // all banks closed, CKE low, DLL on (fast exit)
	PrechargePDSlow  config.Time // all banks closed, CKE low, DLL off (slow exit)
	Refreshing       config.Time // rank executing a refresh (tRFC windows)

	// Event counts and occupancies.
	Activations uint64      // row activate(+precharge) pairs
	Refreshes   uint64      // refresh commands executed
	PDExits     uint64      // powerdown exits (EPDC)
	ReadBurst   config.Time // time this rank drove the bus for reads
	WriteBurst  config.Time // time this rank drove the bus for writes
	TermBurst   config.Time // time other ranks on the channel drove the bus (set by the controller at flush)
}

// Total returns the accounted wall-clock duration.
func (a Account) Total() config.Time {
	return a.ActiveStandby + a.PrechargeStandby + a.ActivePD +
		a.PrechargePD + a.PrechargePDSlow + a.Refreshing
}

// Add accumulates b into a.
func (a *Account) Add(b Account) {
	a.ActiveStandby += b.ActiveStandby
	a.PrechargeStandby += b.PrechargeStandby
	a.ActivePD += b.ActivePD
	a.PrechargePD += b.PrechargePD
	a.PrechargePDSlow += b.PrechargePDSlow
	a.Refreshing += b.Refreshing
	a.Activations += b.Activations
	a.Refreshes += b.Refreshes
	a.PDExits += b.PDExits
	a.ReadBurst += b.ReadBurst
	a.WriteBurst += b.WriteBurst
	a.TermBurst += b.TermBurst
}

// PrechargedFraction returns the fraction of accounted time with all
// banks precharged (the PTC counter), CKE high or low.
func (a Account) PrechargedFraction() float64 {
	total := a.Total()
	if total == 0 {
		return 1
	}
	return float64(a.PrechargeStandby+a.PrechargePD+a.PrechargePDSlow) / float64(total)
}

// PrechargePDFraction returns the fraction of time precharged with CKE
// low (the PTCKEL counter).
func (a Account) PrechargePDFraction() float64 {
	total := a.Total()
	if total == 0 {
		return 0
	}
	return float64(a.PrechargePD+a.PrechargePDSlow) / float64(total)
}

// ActivePDFraction returns the fraction of time active with CKE low
// (the ATCKEL counter).
func (a Account) ActivePDFraction() float64 {
	total := a.Total()
	if total == 0 {
		return 0
	}
	return float64(a.ActivePD) / float64(total)
}
