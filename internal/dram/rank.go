package dram

import (
	"fmt"
	"math"

	"memscale/internal/config"
)

// PDState is the clock-enable (CKE) state of a rank.
type PDState int

// Powerdown states. Only precharge powerdown is entered by the
// controller policies (as in the paper); active powerdown exists for
// accounting completeness.
const (
	PDNone PDState = iota // CKE high, rank operational
	PDFast                // fast-exit precharge powerdown (tXP to wake)
	PDSlow                // slow-exit precharge powerdown (tXPDLL to wake)
)

// inFlight marks a bank whose final busy time is not yet known (the
// access has started but has not been granted the bus).
const inFlight = config.Time(math.MaxInt64)

type bankState struct {
	openRow   int         // -1 when precharged
	freeAt    config.Time // bank can start its next access at this time
	actAt     config.Time // time of the activation that opened openRow
	inService bool        // between StartAccess and FinishAccess
}

// Rank models one DRAM rank: eight (configurable) banks sharing
// activation windows, powerdown state, and refresh obligations.
// All methods must be called with monotonically nondecreasing times;
// the rank is not safe for concurrent use (the simulator is
// single-threaded by design).
type Rank struct {
	timing *Resolved // shared with the controller; swapped on DVFS
	banks  []bankState

	activeBanks int
	inService   int

	lastAct config.Time
	faw     [4]config.Time // ring of recent activation times
	fawIdx  int

	pd             PDState
	refreshing     bool
	refreshPending bool
	refreshUntil   config.Time

	acct   Account
	acctAt config.Time
}

// NewRank builds a rank with the given bank count, using timing t
// (which the controller may re-point on every frequency change).
func NewRank(banks int, t *Resolved) *Rank {
	if banks <= 0 {
		panic("dram: rank needs at least one bank")
	}
	r := &Rank{timing: t, banks: make([]bankState, banks)}
	for i := range r.banks {
		r.banks[i].openRow = -1
	}
	// Seed the activation history far in the past so a fresh rank
	// imposes no tRRD/tFAW constraint.
	const distantPast = config.Time(math.MinInt64 / 4)
	r.lastAct = distantPast
	for i := range r.faw {
		r.faw[i] = distantPast
	}
	return r
}

// tick attributes the interval since the last accounting point to the
// rank's current background state.
func (r *Rank) tick(now config.Time) {
	dur := now - r.acctAt
	if dur < 0 {
		panic(fmt.Sprintf("dram: accounting time went backwards: %v -> %v", r.acctAt, now))
	}
	if dur == 0 {
		return
	}
	switch {
	case r.refreshing:
		r.acct.Refreshing += dur
	case r.pd == PDNone && r.activeBanks > 0:
		r.acct.ActiveStandby += dur
	case r.pd == PDNone:
		r.acct.PrechargeStandby += dur
	case r.activeBanks > 0:
		r.acct.ActivePD += dur
	case r.pd == PDSlow:
		r.acct.PrechargePDSlow += dur
	default:
		r.acct.PrechargePD += dur
	}
	r.acctAt = now
}

// Flush closes the current accounting interval at now and returns the
// accumulated account, resetting it.
func (r *Rank) Flush(now config.Time) Account {
	r.tick(now)
	out := r.acct
	r.acct = Account{}
	return out
}

// OpenRow returns the open row of a bank, or -1.
func (r *Rank) OpenRow(bank int) int { return r.banks[bank].openRow }

// BankFreeAt returns when the bank can next start an access; it
// returns (time, false) if the bank is mid-service with an unknown
// completion.
func (r *Rank) BankFreeAt(bank int) (config.Time, bool) {
	b := &r.banks[bank]
	if b.inService {
		return 0, false
	}
	return b.freeAt, true
}

// Idle reports whether no bank is in service or open and no refresh is
// pending or running — the condition for entering powerdown.
func (r *Rank) Idle(now config.Time) bool {
	if r.inService > 0 || r.activeBanks > 0 || r.refreshing || r.refreshPending {
		return false
	}
	for i := range r.banks {
		if r.banks[i].freeAt > now {
			return false // precharge still completing
		}
	}
	return true
}

// InPowerdown reports the rank's CKE-low state.
func (r *Rank) InPowerdown() PDState { return r.pd }

// EnterPowerdown drops CKE if the rank is idle. It reports whether the
// transition happened.
func (r *Rank) EnterPowerdown(now config.Time, slow bool) bool {
	if r.pd != PDNone || !r.Idle(now) {
		return false
	}
	r.tick(now)
	if slow {
		r.pd = PDSlow
	} else {
		r.pd = PDFast
	}
	return true
}

// wake raises CKE and returns the exit latency the next command must
// absorb. Counted as a powerdown exit (EPDC).
func (r *Rank) wake(now config.Time) config.Time {
	if r.pd == PDNone {
		return 0
	}
	r.tick(now)
	exit := r.timing.TXP
	if r.pd == PDSlow {
		exit = r.timing.TXPDLL
	}
	r.pd = PDNone
	r.acct.PDExits++
	return exit
}

// earliestActivate returns the earliest time a new activation may be
// issued, honouring tRRD and the four-activation window tFAW.
func (r *Rank) earliestActivate() config.Time {
	t := r.lastAct + r.timing.TRRD
	if w := r.faw[r.fawIdx] + r.timing.TFAW; w > t {
		t = w // r.faw[r.fawIdx] is the oldest of the last four
	}
	return t
}

func (r *Rank) recordActivation(at config.Time) {
	r.lastAct = at
	r.faw[r.fawIdx] = at
	r.fawIdx = (r.fawIdx + 1) % len(r.faw)
	r.acct.Activations++
}

// StartAccess begins servicing an access to (bank, row) at or after
// now. It returns the time device data is ready for the bus, the
// row-buffer outcome, and whether a powerdown exit was absorbed. The
// bank is held in service until FinishAccess.
//
// The caller must not start an access on a bank that is in service or
// whose freeAt lies in the future, and must not call during a pending
// or running refresh.
func (r *Rank) StartAccess(now config.Time, bank, row int) (ready config.Time, kind AccessKind, pdExit bool) {
	b := &r.banks[bank]
	if b.inService {
		panic("dram: StartAccess on bank already in service")
	}
	// A pending (not yet issued) refresh is tolerated: the controller
	// stops dispatching new requests, but requests already in its
	// pipeline may still reach the rank; the refresh waits for them.
	if r.refreshing {
		panic("dram: StartAccess during refresh")
	}

	start := config.MaxTime(now, b.freeAt)
	if r.pd != PDNone {
		exit := r.wake(now)
		start = config.MaxTime(start, now+exit)
		pdExit = true
	}

	switch {
	case b.openRow == row:
		kind = RowHit
	case b.openRow == -1:
		kind = ClosedMiss
	default:
		kind = OpenMiss
	}

	if kind != RowHit {
		// The activation is issued after any required precharge.
		actAt := start
		if kind == OpenMiss {
			actAt += r.timing.TRP
		}
		actAt = config.MaxTime(actAt, r.earliestActivate())
		r.recordActivation(actAt)
		if kind == OpenMiss {
			start = actAt - r.timing.TRP
		} else {
			start = actAt
		}
		b.actAt = actAt
		if b.openRow == -1 {
			r.tick(now)
			r.activeBanks++
		}
		b.openRow = row
	}

	ready = start + r.timing.Latency(kind)
	b.inService = true
	b.freeAt = inFlight
	r.inService++
	return ready, kind, pdExit
}

// FinishAccess completes the bus transfer of the bank's in-service
// access: the burst occupies [busStart, busEnd]. If keepOpen, the row
// is left open for an already-queued same-row access; otherwise the
// bank precharges and the caller must invoke PrechargeDone at the
// returned time. Write selects read vs write burst accounting.
func (r *Rank) FinishAccess(bank int, busStart, busEnd config.Time, write, keepOpen bool) (prechargeDone config.Time) {
	b := &r.banks[bank]
	if !b.inService {
		panic("dram: FinishAccess on bank not in service")
	}
	b.inService = false
	r.inService--

	if write {
		r.acct.WriteBurst += busEnd - busStart
	} else {
		r.acct.ReadBurst += busEnd - busStart
	}

	if keepOpen {
		b.freeAt = busEnd
		return 0
	}
	prechargeStart := config.MaxTime(busEnd, b.actAt+r.timing.TRAS)
	prechargeDone = prechargeStart + r.timing.TRP
	b.freeAt = prechargeDone
	return prechargeDone
}

// PrechargeDone marks the bank's auto-precharge complete, closing the
// row. Call at the time FinishAccess returned. If a refresh's
// precharge-all already closed the bank, the call is a no-op.
func (r *Rank) PrechargeDone(now config.Time, bank int) {
	b := &r.banks[bank]
	if b.openRow == -1 {
		return
	}
	r.tick(now)
	b.openRow = -1
	r.activeBanks--
}

// SetRefreshPending marks that a refresh is due; the controller stops
// dispatching to the rank until the refresh completes.
func (r *Rank) SetRefreshPending() { r.refreshPending = true }

// RefreshBlocked reports whether dispatch to this rank must wait for a
// refresh to be issued and completed.
func (r *Rank) RefreshBlocked() bool { return r.refreshing || r.refreshPending }

// TryStartRefresh attempts to begin the pending refresh at now. It
// fails while any bank is mid-service. On success it returns the time
// the refresh completes; the caller must invoke RefreshDone then.
func (r *Rank) TryStartRefresh(now config.Time) (until config.Time, ok bool) {
	if !r.refreshPending {
		panic("dram: TryStartRefresh without a pending refresh")
	}
	if r.inService > 0 {
		return 0, false
	}
	if r.refreshing {
		// A refresh obligation arrived while one is running (a
		// retention-emergency round landing mid-refresh); it starts
		// when the running one completes.
		return 0, false
	}
	start := now
	if r.pd != PDNone {
		start += r.wake(now)
	}
	for i := range r.banks {
		start = config.MaxTime(start, r.banks[i].freeAt)
	}
	r.tick(now)
	if r.activeBanks > 0 {
		// Precharge-all before refresh; close every open row.
		for i := range r.banks {
			if r.banks[i].openRow != -1 {
				r.banks[i].openRow = -1
				r.activeBanks--
			}
		}
		start += r.timing.TRP
	}
	r.refreshing = true
	r.refreshPending = false
	r.refreshUntil = start + r.timing.TRFC
	for i := range r.banks {
		r.banks[i].freeAt = r.refreshUntil
	}
	return r.refreshUntil, true
}

// RefreshDone completes the running refresh.
func (r *Rank) RefreshDone(now config.Time) {
	if !r.refreshing {
		panic("dram: RefreshDone without a running refresh")
	}
	r.tick(now)
	r.refreshing = false
	r.acct.Refreshes++
}
