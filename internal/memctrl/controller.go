// Package memctrl implements the integrated memory controller: per-bank
// request queues with closed-page row management, FCFS reads with
// writeback draining, the transfer-blocking bank/bus interaction of the
// paper's queueing model (Figure 4), rank powerdown management, refresh
// scheduling, the Section 3.1 performance counters, and the
// PLL/DLL-relock frequency-switching mechanism that MemScale adds.
//
// The memory subsystem has one operating point, the bus frequency: every
// switch (SetBusFrequency) moves all channels together, as in the
// paper's scheme, and the device and MC clocks derive from it
// (config.DevFreq, config.MCFreq). Every rank shares one timing.
package memctrl

import (
	"fmt"
	"math"
	"math/bits"

	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/event"
	"memscale/internal/power"
	"memscale/internal/telemetry"
)

// Request is one memory transaction in flight through the controller.
type Request struct {
	Loc   config.Location
	Write bool
	Core  int

	// Done is invoked when the data transfer completes (reads only;
	// writebacks are fire-and-forget).
	Done func(now config.Time)

	Arrived config.Time
	ready   config.Time // device data ready for the bus
}

// noDeferral is the defAts sentinel for a bank with no deferred close;
// it compares after every real instant.
const noDeferral = config.Time(math.MaxInt64)

// bankID flattens (rank, bank) within one channel.
type bankID int

func (c *Controller) bankID(rank, bank int) bankID {
	return bankID(rank*c.cfg.BanksPerRank + bank)
}

// split inverts bankID: the rank, and the bank within the rank.
func (c *Controller) split(b bankID) (rank, bank int) {
	return int(b) / c.cfg.BanksPerRank, int(b) % c.cfg.BanksPerRank
}

type bank struct {
	queue      reqRing // FIFO of reads waiting for this bank
	wb         reqRing // FIFO of writebacks targeting this bank
	dispatched bool    // a request occupies MC pipeline/bank/bus-wait

	// Deferred auto-precharge close (DESIGN.md §4g): when a grant leaves
	// the bank idle — or leaves it with a forced next dispatch — inside
	// the quiesce horizon, the precharge-done event is elided; the
	// channel's defAts entry for the bank is then real. prechAt/prechSeq
	// record the instant and the reserved ordering ticket of the event
	// that would have fired; settleRank replays or materializes it on
	// the rank's next touch. With defDispatch set, the elided event's
	// dispatch of defReq (the unambiguous queue head) rides the
	// deferred-schedule plane: its start-bank event materializes at the
	// ticket's exact position, and settlement replays only the pop and
	// the bookkeeping.
	defDispatch bool
	prechAt     config.Time
	prechSeq    event.Seq
	defReq      *Request
}

// outstanding returns the requests the bank holds: its queued reads and
// writebacks, and the one it has dispatched, if any.
func (bk *bank) outstanding() int {
	n := bk.queue.Len() + bk.wb.Len()
	if bk.dispatched {
		n++
	}
	return n
}

type channel struct {
	banks   []bank
	wbCount int // writebacks queued across all banks

	busFreeAt config.Time
	busQueue  reqRing // bank-service-complete, waiting for the bus

	// grantArmed tracks whether a bus-grant event is pending at
	// busFreeAt. The grant event is armed lazily — only when a request
	// is actually waiting for a busy bus — so the uncontended common
	// case (the bus frees before the next request's data is ready)
	// schedules no wakeup at all. grantSeq holds the ordering ticket
	// reserved where the eager formulation scheduled its
	// grant-at-busEnd event, so a lazily armed grant fires at exactly
	// the same position among same-instant events. See DESIGN.md §4g.
	grantArmed bool
	grantSeq   event.Seq

	busBusy config.Time // accumulated burst occupancy since last flush

	// defAts/defSeqs mirror banks[i].prechAt/prechSeq for banks holding
	// a deferred close (noDeferral sentinel otherwise), packed flat so
	// settleRank's earliest-deferral scan reads two cache lines instead
	// of eight scattered bank structs.
	defAts  []config.Time
	defSeqs []uint64
}

// rankRec is the controller's record of one rank. The requests it
// holds are counted from its bank records only (rankLoad).
type rankRec struct {
	dev *dram.Rank

	// defMask has bit i set while bank i holds a deferred close, so
	// settlement visits only those banks — usually one or two of eight.
	// config.Validate caps BanksPerRank at the mask's 64 bits.
	defMask uint64

	// defGate is a lower bound on the earliest prechAt of the rank's
	// deferred closes (noDeferral when none), so settleRank's inlined
	// gate is one load and one compare. Removing a deferral may leave
	// it stale-low; the next touch rescans and tightens it.
	defGate config.Time
}

// Controller is the memory controller for all channels.
type Controller struct {
	cfg    *config.Config
	q      *event.Queue
	mapper *config.AddressMapper

	channels []*channel
	ranks    []rankRec // [chIdx*ranksPerCh + rankIdx]

	// timing is the operating point, resolved at the bus frequency; every
	// rank points at it. While relocking, no channel dispatches or grants
	// its bus until relockUntil.
	timing      dram.Resolved
	relocking   bool
	relockUntil config.Time

	ranksPerCh int // cached cfg.RanksPerChannel(), for the ranks index

	counters Counters

	flushedAt config.Time // start of the current power interval

	// tel, when non-nil, receives latency/queue-depth samples and
	// powerdown/refresh/relock events, each tagged with its channel and
	// recorded as it happens. Purely observational: no scheduling
	// decision reads it.
	tel *telemetry.Recorder

	// quiesce is the coalescing horizon: the caller's promise that no
	// external sampling (counter window, power flush, instruction
	// readout) happens strictly before this time. Completions whose bus
	// transfer ends at or before the horizon may be delivered inline at
	// grant time instead of through a separate event — the closed-form
	// fast path of DESIGN.md §4g. Zero disables every fast path.
	quiesce config.Time

	// reqFree recycles Request objects: every transaction that clears
	// the bus returns its Request to the pool, so the steady state
	// allocates none.
	reqFree []*Request

	// Pre-bound event callbacks, created once so the hot path schedules
	// without capturing a closure (see event.Bound).
	onStartBank   event.Bound
	onBusReady    event.Bound
	onBankKick    event.Bound
	onPrecharge   event.Bound
	onGrantBus    event.Bound
	onRefreshTick event.Bound
	onRefreshDone event.Bound
	onRelockDone  event.Bound
	onRelockKick  event.Bound
	onDone        event.Bound
}

// New builds a controller for cfg, scheduling on q. Every channel
// boots at the nominal maximum frequency.
func New(cfg *config.Config, q *event.Queue) *Controller {
	c := &Controller{
		cfg:    cfg,
		q:      q,
		mapper: config.NewAddressMapper(cfg),
	}
	c.setBusFreq(config.MaxBusFreq)
	c.ranksPerCh = cfg.RanksPerChannel()
	c.onStartBank = c.startBankServiceEvent
	c.onBusReady = c.busReadyEvent
	c.onBankKick = c.bankKickEvent
	c.onPrecharge = c.prechargeEvent
	c.onGrantBus = c.grantBusEvent
	c.onRefreshTick = c.refreshTickEvent
	c.onRefreshDone = c.refreshDoneEvent
	c.onRelockDone = c.onRelockDoneEvent
	c.onRelockKick = c.onRelockKickEvent
	c.onDone = c.onDoneEvent

	banksPerChannel := c.ranksPerCh * cfg.BanksPerRank
	c.channels = make([]*channel, cfg.Channels)
	for chIdx := range c.channels {
		ch := &channel{
			banks:   make([]bank, banksPerChannel),
			defAts:  make([]config.Time, banksPerChannel),
			defSeqs: make([]uint64, banksPerChannel),
		}
		for i := range ch.defAts {
			ch.defAts[i] = noDeferral
		}
		c.channels[chIdx] = ch
	}
	c.ranks = make([]rankRec, cfg.Channels*c.ranksPerCh)
	for g := range c.ranks {
		c.ranks[g] = rankRec{dev: dram.NewRank(cfg.BanksPerRank, &c.timing), defGate: noDeferral}
	}
	c.counters.TLM = make([]uint64, cfg.Cores)
	return c
}

// setBusFreq resolves the shared timing at bus frequency f.
func (c *Controller) setBusFreq(f config.FreqMHz) {
	c.timing = dram.Resolve(c.cfg.Timing, f, c.cfg.DevFreq(f))
}

// Start arms the per-rank refresh timers, staggered so ranks refresh
// round-robin across the tREFI interval as real controllers do.
func (c *Controller) Start() {
	interval := c.cfg.Timing.RefreshInterval()
	n := config.Time(len(c.ranks))
	for g := range c.ranks {
		ch, r := g/c.ranksPerCh, g%c.ranksPerCh
		first := c.q.Now() + interval*config.Time(g+1)/n
		c.q.ScheduleBound(first, c.onRefreshTick, nil, int32(ch), int32(r))
		// Ranks that never see traffic still power down under the
		// powerdown policies.
		c.maybePowerdown(c.q.Now(), ch, r)
	}
}

// rank returns the record of rank rankIdx on channel chIdx.
func (c *Controller) rank(chIdx, rankIdx int) *rankRec {
	return &c.ranks[chIdx*c.ranksPerCh+rankIdx]
}

// rankLoad sums a rank's bank records: the requests its banks hold,
// queued or dispatched, and how many of those are dispatched.
func (c *Controller) rankLoad(chIdx, rankIdx int) (pending, dispatched int) {
	base := rankIdx * c.cfg.BanksPerRank
	banks := c.channels[chIdx].banks[base : base+c.cfg.BanksPerRank]
	for i := range banks {
		pending += banks[i].outstanding()
		if banks[i].dispatched {
			dispatched++
		}
	}
	return pending, dispatched
}

// BusFreq returns the bus frequency every channel runs at.
func (c *Controller) BusFreq() config.FreqMHz { return c.timing.BusFreq }

// SetTelemetry attaches a recorder. Pass nil to detach.
func (c *Controller) SetTelemetry(tel *telemetry.Recorder) { c.tel = tel }

// SetQuiesceHorizon declares that nothing outside the event queue will
// observe controller or core state strictly before t: no counter
// snapshot, power flush, or instruction readout. Until the horizon the
// controller may collapse request completions into closed-form inline
// updates rather than discrete events. The caller (the epoch loop)
// must re-declare the horizon before each drain; it never moves
// backwards within a run. Zero — the default — keeps every completion
// on the fully event-driven path.
func (c *Controller) SetQuiesceHorizon(t config.Time) { c.quiesce = t }

// Counters returns a snapshot of the performance counters.
func (c *Controller) Counters() Counters { return c.counters.Clone() }

// Timing returns the resolved timing of the current operating point.
func (c *Controller) Timing() dram.Resolved { return c.timing }

// getRequest takes a recycled Request from the pool, or allocates one
// while the pool warms up.
func (c *Controller) getRequest() *Request {
	if n := len(c.reqFree); n > 0 {
		req := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		return req
	}
	return &Request{}
}

// putRequest recycles a completed Request into the pool. Only the
// callback is cleared, so the pool retains no reference; every other
// field is overwritten by the next EnqueueLoc.
func (c *Controller) putRequest(req *Request) {
	req.Done = nil
	c.reqFree = append(c.reqFree, req)
}

// Enqueue submits a memory transaction by line address: it decodes the
// line and calls EnqueueLoc.
func (c *Controller) Enqueue(now config.Time, line uint64, write bool, core int, done func(config.Time)) {
	c.EnqueueLoc(now, c.mapper.Map(line), write, core, done)
}

// EnqueueLoc submits a memory transaction at a decoded location, which
// must lie inside the configured address space. Reads invoke done when
// their data transfer completes; writebacks ignore done.
func (c *Controller) EnqueueLoc(now config.Time, loc config.Location, write bool, core int, done func(config.Time)) {
	c.settleRank(now, loc.Channel, loc.Rank, false)
	ch := c.channels[loc.Channel]
	b := c.bankID(loc.Rank, loc.Bank)
	if bk := &ch.banks[b]; bk.defDispatch &&
		(write || (bk.prechAt == now && uint64(bk.prechSeq) > c.q.FiringSeq())) {
		// Two ways an arrival can invalidate the bank's deferred
		// dispatch: a competing writeback un-forces the choice, and an
		// arrival at the close instant — ahead of the elided event's
		// ticket — dispatches the head itself (the bank is free at that
		// instant), leaving the close with nothing to dispatch. Either
		// way, put the decision back on a live event.
		c.reviveDispatch(loc.Channel, b)
	}
	req := c.getRequest()
	req.Loc = loc
	req.Write = write
	req.Core = core
	req.Done = done
	req.Arrived = now
	req.ready = 0

	// Section 3.1 accumulators: outstanding work seen by the arrival.
	c.counters.BTC++
	c.counters.BTO += uint64(ch.banks[b].outstanding())
	c.counters.CTC++
	busOut := ch.busQueue.Len()
	if ch.busFreeAt > now {
		busOut++
	}
	c.counters.CTO += uint64(busOut)
	if !write {
		c.counters.TLM[core]++
	}

	if c.tel != nil {
		// Channel-local depth: the count an arrival sees on its own
		// channel's queues.
		depth := 0
		for i := range ch.banks {
			depth += ch.banks[i].outstanding()
		}
		c.tel.ObserveQueueDepth(depth)
	}

	if write {
		ch.banks[b].wb.Push(req)
		ch.wbCount++
	} else {
		ch.banks[b].queue.Push(req)
	}
	c.tryDispatch(now, loc.Channel, b)
}

// nextFor selects the next request to dispatch to a bank, applying the
// paper's scheduling rule: reads have priority over writebacks until
// the writeback queue is half full (Section 4.1). Writebacks are queued
// per bank, so taking the oldest writeback for this bank is O(1)
// instead of a scan-and-shift of one channel-wide slice.
func (c *Controller) nextFor(ch *channel, b bankID) *Request {
	bk := &ch.banks[b]
	wbFirst := ch.wbCount >= c.cfg.WritebackQueueCap/2
	if wbFirst && bk.wb.Len() > 0 {
		ch.wbCount--
		return bk.wb.Pop()
	}
	if bk.queue.Len() > 0 {
		return bk.queue.Pop()
	}
	if !wbFirst && bk.wb.Len() > 0 {
		ch.wbCount--
		return bk.wb.Pop()
	}
	return nil
}

// tryDispatch starts the next request for a bank if the bank, its
// rank, and the controller allow it.
func (c *Controller) tryDispatch(now config.Time, chIdx int, b bankID) {
	ch := c.channels[chIdx]
	if c.relocking || ch.banks[b].dispatched {
		return
	}
	rankIdx, bankIdx := c.split(b)
	rank := c.rank(chIdx, rankIdx).dev
	if rank.RefreshBlocked() {
		return
	}
	free, ok := rank.BankFreeAt(bankIdx)
	if !ok {
		return // in service; FinishAccess will re-kick
	}
	if free > now {
		// A precharge or refresh window is still closing. An elided
		// close that now has work can stay elided if the dispatch choice
		// is forced — the arrival becomes the queue head the close will
		// dispatch — by upgrading to a dispatching deferral; otherwise
		// revive it so its firing re-decides live. Real events that set
		// freeAt, and dispatching deferrals, re-kick on their own.
		if bk := &ch.banks[b]; ch.defAts[b] != noDeferral && !bk.defDispatch {
			if bk.queue.Len() > 0 && bk.wb.Len() == 0 {
				bk.defDispatch = true
				bk.defReq = bk.queue.Peek()
				c.q.ScheduleViaSeq(bk.prechAt, bk.prechSeq, bk.prechAt+c.timing.MC,
					c.onStartBank, bk.defReq, int32(chIdx), int32(b))
			} else {
				c.materializePrecharge(bk, chIdx, b)
			}
		}
		return
	}
	req := c.nextFor(ch, b)
	if req == nil {
		c.maybePowerdown(now, chIdx, rankIdx)
		return
	}
	ch.banks[b].dispatched = true
	// The MC pipeline spends mcTime per request before the device
	// sees it (five MC cycles, Section 3.3).
	c.q.ScheduleBound(now+c.timing.MC, c.onStartBank, req, int32(chIdx), int32(b))
}

func (c *Controller) startBankServiceEvent(now config.Time, env any, a, b int32) {
	c.startBankService(now, int(a), bankID(b), env.(*Request))
}

// startBankService issues the request to the DRAM bank.
func (c *Controller) startBankService(now config.Time, chIdx int, b bankID, req *Request) {
	if c.relocking {
		// The relock began after dispatch; resume when it ends.
		c.q.ScheduleBound(c.relockUntil, c.onStartBank, req, int32(chIdx), int32(b))
		return
	}
	rankIdx := req.Loc.Rank
	c.settleRank(now, chIdx, rankIdx, false)
	rank := c.rank(chIdx, rankIdx).dev
	ready, kind, pdExit := rank.StartAccess(now, req.Loc.Bank, req.Loc.Row)

	switch kind {
	case dram.RowHit:
		c.counters.RBHC++
	case dram.ClosedMiss:
		c.counters.CBMC++
	case dram.OpenMiss:
		c.counters.OBMC++
	}
	if kind != dram.RowHit {
		c.counters.POCC++
	}
	if pdExit {
		c.counters.EPDC++
		if c.tel != nil {
			c.tel.PowerdownExit(now, chIdx, rankIdx)
		}
	}

	// Decoupled DIMMs: the device-side transfer into the
	// synchronization buffer runs at the slower device clock; the
	// channel burst cannot begin until it completes.
	if extra := c.timing.DevBurst - c.timing.Burst; extra > 0 {
		ready += extra
	}
	req.ready = ready
	c.q.ScheduleBound(ready, c.onBusReady, req, int32(chIdx), 0)
}

// busReadyEvent queues a bank-service-complete request for the channel
// bus and tries to grant it.
func (c *Controller) busReadyEvent(now config.Time, env any, a, _ int32) {
	chIdx := int(a)
	c.channels[chIdx].busQueue.Push(env.(*Request))
	c.tryGrantBus(now, chIdx)
}

// tryGrantBus gives the channel bus to the oldest ready request. The
// bank stays blocked until its request is accepted here — the
// transfer-blocking behaviour of the Figure 4 queueing model.
func (c *Controller) tryGrantBus(now config.Time, chIdx int) {
	ch := c.channels[chIdx]
	if c.relocking || ch.busQueue.Len() == 0 {
		return
	}
	if ch.busFreeAt > now {
		// The bus is busy and a request is waiting: arm the grant for
		// the instant the bus frees, unless one is already pending. The
		// reserved ticket puts it exactly where the eager formulation's
		// unconditional grant event would have fired.
		if !ch.grantArmed {
			ch.grantArmed = true
			c.q.ScheduleBoundSeq(ch.busFreeAt, ch.grantSeq, c.onGrantBus, nil, int32(chIdx), 0)
		}
		return
	}
	req := ch.busQueue.Pop()
	c.settleRank(now, chIdx, req.Loc.Rank, false)

	busStart := now
	busEnd := busStart + c.timing.Burst
	ch.busFreeAt = busEnd
	ch.busBusy += busEnd - busStart

	b := c.bankID(req.Loc.Rank, req.Loc.Bank)
	rankIdx := req.Loc.Rank
	rank := c.rank(chIdx, rankIdx).dev

	// Closed-page management: keep the row open only if the next
	// request already queued for this bank targets the same row
	// (Section 4.1); otherwise auto-precharge.
	keepOpen := false
	if q := &ch.banks[b].queue; q.Len() > 0 && q.Peek().Loc.Row == req.Loc.Row && !rank.RefreshBlocked() {
		keepOpen = true
	}

	prechargeDone := rank.FinishAccess(req.Loc.Bank, busStart, busEnd, req.Write, keepOpen)

	ch.banks[b].dispatched = false
	if req.Write {
		c.counters.Writebacks++
	} else {
		c.counters.Reads++
		if c.tel != nil {
			c.tel.ObserveReadLatency(busEnd - req.Arrived)
		}
	}

	if keepOpen {
		c.q.ScheduleBound(busEnd, c.onBankKick, nil, int32(chIdx), int32(b))
	} else if c.tel == nil && prechargeDone <= c.quiesce && ch.banks[b].outstanding() == 0 {
		// Deferred precharge close: the bank has no queued work, so the
		// event's only effects would be the row close (a pure state
		// transition at a known time) and the powerdown check. Elide the
		// event, reserving its ordering ticket; the rank's next touch
		// settles it retroactively, or revives it as a real event if
		// work arrives before the instant passes. Inside the quiesce
		// horizon nothing samples the rank before settlement, and with
		// no telemetry attached no observer sees the transition late.
		bk := &ch.banks[b]
		bk.prechAt = prechargeDone
		bk.prechSeq = c.q.ReserveSeq()
		ch.defAts[b] = prechargeDone
		ch.defSeqs[b] = uint64(bk.prechSeq)
		c.deferAdded(chIdx, b, prechargeDone)
	} else if bk := &ch.banks[b]; c.tel == nil && prechargeDone <= c.quiesce &&
		bk.queue.Len() > 0 && bk.wb.Len() == 0 && !rank.RefreshBlocked() {
		// Deferred dispatching precharge: reads are queued and no
		// writeback competes, so the elided event's dispatch choice is
		// forced — the queue head, whatever arrives later. The head's
		// start-bank event rides the deferred-schedule plane, activating
		// at the elided event's exact ticket position; settlement
		// replays the row close, the pop, and the bookkeeping. A
		// writeback arrival or a refresh obligation before the instant
		// un-forces the choice and revives the real event instead.
		bk.defDispatch = true
		bk.prechAt = prechargeDone
		bk.prechSeq = c.q.ReserveSeq()
		bk.defReq = bk.queue.Peek()
		ch.defAts[b] = prechargeDone
		ch.defSeqs[b] = uint64(bk.prechSeq)
		c.deferAdded(chIdx, b, prechargeDone)
		c.q.ScheduleViaSeq(prechargeDone, bk.prechSeq, prechargeDone+c.timing.MC,
			c.onStartBank, bk.defReq, int32(chIdx), int32(b))
	} else {
		c.q.ScheduleBound(prechargeDone, c.onPrecharge, nil, int32(chIdx), int32(b))
	}

	if req.Done != nil && !req.Write && busEnd > c.quiesce {
		// The completion event carries the Request itself so a
		// checkpoint can name it; onDone recycles it after delivering.
		c.q.ScheduleBound(busEnd, c.onDone, req, 0, 0)
	} else {
		if req.Done != nil && !req.Write {
			// Closed-form completion: the transfer's end time is already
			// known, and inside the quiesce horizon nobody can observe
			// the core before busEnd, so deliver the data inline instead
			// of scheduling a wakeup. The callback begins the core's next
			// compute segment, whose issue event consumes the one
			// ordering ticket the eager formulation spent right here —
			// so every event scheduled between now and busEnd keeps its
			// exact same-instant position.
			req.Done(busEnd)
		}
		// The transaction is through: recycle its Request. Everything
		// that still needs to run (completion callback, precharge, bus
		// grant) was captured into events above.
		c.putRequest(req)
	}

	c.refreshKick(now, chIdx, rankIdx)

	// The bus frees at busEnd; if another request is already waiting,
	// grant it then. With an empty queue no event is scheduled — only
	// the ordering ticket is taken, so that a request becoming ready
	// mid-burst can arm the grant from its busReadyEvent at the exact
	// same-instant position, while one that becomes ready after busEnd
	// takes the free bus immediately with no wakeup at all.
	// Exactly one ordering ticket is consumed per grant either way, so
	// the schedule counter — and with it every same-instant FIFO
	// tie-break downstream — advances in lockstep with the eager
	// formulation.
	if ch.busQueue.Len() > 0 && !ch.grantArmed {
		ch.grantArmed = true
		c.q.ScheduleBound(busEnd, c.onGrantBus, nil, int32(chIdx), 0)
	} else {
		ch.grantSeq = c.q.ReserveSeq()
	}
}

// bankKickEvent re-attempts dispatch on one bank (after a kept-open row
// finished its burst).
func (c *Controller) bankKickEvent(now config.Time, _ any, a, b int32) {
	rankIdx, _ := c.split(bankID(b))
	c.settleRank(now, int(a), rankIdx, false)
	c.tryDispatch(now, int(a), bankID(b))
}

// prechargeEvent completes a bank's auto-precharge, re-kicks dispatch,
// and reconsiders powerdown.
func (c *Controller) prechargeEvent(now config.Time, _ any, a, b int32) {
	chIdx, bk := int(a), bankID(b)
	rankIdx, bankIdx := c.split(bk)
	c.settleRank(now, chIdx, rankIdx, false)
	c.rank(chIdx, rankIdx).dev.PrechargeDone(now, bankIdx)
	c.tryDispatch(now, chIdx, bk)
	c.maybePowerdown(now, chIdx, rankIdx)
}

// deferAdded records a new deferred close of bank b for its rank,
// tightening the earliest-instant bound.
func (c *Controller) deferAdded(chIdx int, b bankID, at config.Time) {
	rankIdx, bankIdx := c.split(b)
	rk := c.rank(chIdx, rankIdx)
	if at < rk.defGate {
		rk.defGate = at
	}
	rk.defMask |= 1 << bankIdx
}

// deferCleared drops bank b's deferred close from the rank's
// bookkeeping.
func (c *Controller) deferCleared(chIdx int, b bankID) {
	c.channels[chIdx].defAts[b] = noDeferral
	rankIdx, bankIdx := c.split(b)
	c.rank(chIdx, rankIdx).defMask &^= 1 << bankIdx
}

// settleRank applies any deferred precharge closes for a rank whose
// instant has been reached, exactly as the elided events would have,
// in the (time, ticket) order those events would have fired in. It is
// called at the top of every path that reads or mutates rank state or
// the rank's queued and dispatched requests, so between a deferred
// instant and its settlement the rank is provably untouched and the
// retroactive evaluation sees exactly the state the event would have
// seen. boundary is true when settling at a drain deadline
// (FlushInterval), where every event at the deadline has already
// fired, so deferred work due exactly now is retroactive rather than
// still pending in the queue.
//
// The inlineable gate makes the no-deferral-due common case a single
// compare at each rank-touch site.
func (c *Controller) settleRank(now config.Time, chIdx, rankIdx int, boundary bool) {
	if c.ranks[chIdx*c.ranksPerCh+rankIdx].defGate > now {
		return
	}
	c.settleRankSlow(now, chIdx, rankIdx, boundary)
}

func (c *Controller) settleRankSlow(now config.Time, chIdx, rankIdx int, boundary bool) {
	ch := c.channels[chIdx]
	base := rankIdx * c.cfg.BanksPerRank
	rk := c.rank(chIdx, rankIdx)
	for rk.defMask != 0 {
		m := rk.defMask
		best := base + bits.TrailingZeros64(m)
		bestAt := ch.defAts[best]
		for m &= m - 1; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			if at := ch.defAts[i]; at < bestAt ||
				(at == bestAt && ch.defSeqs[i] < ch.defSeqs[best]) {
				best, bestAt = i, at
			}
		}
		b := bankID(best)
		bk := &ch.banks[b]
		if bk.prechAt > now {
			rk.defGate = bk.prechAt // exact again
			return                  // still in the future; revival on arrival handles it
		}
		if !boundary && bk.prechAt == now && uint64(bk.prechSeq) > c.q.FiringSeq() {
			if bk.defDispatch {
				// The dispatching close fires later this instant; its
				// start-bank activation is still queued in the deferred
				// plane, and a later same-instant touch (at the latest,
				// the start-bank fire itself) settles the bookkeeping.
				return
			}
			// The elided event's same-instant position hasn't been passed
			// yet: make it real so it fires in place.
			c.materializePrecharge(bk, chIdx, b)
			continue
		}
		// The instant is behind us: replay the close at its own
		// timestamp. The rank was untouched since, so the retroactive
		// evaluation sees exactly the state the event would have seen.
		at := bk.prechAt
		c.deferCleared(chIdx, b)
		rk.dev.PrechargeDone(at, best-base)
		if bk.defDispatch {
			// Replay the forced dispatch: the head is popped and the
			// bank marked busy; the start-bank event itself already
			// materialized at the elided event's exact position.
			bk.defDispatch = false
			if popped := bk.queue.Pop(); popped != bk.defReq {
				panic("memctrl: deferred dispatch head changed before settlement")
			}
			bk.defReq = nil
			bk.dispatched = true
		} else {
			// The bank had no queued work at prechAt (an arrival would
			// have settled or materialized first), so the elided event's
			// dispatch attempt reduces to the powerdown check.
			c.maybePowerdown(at, chIdx, rankIdx)
		}
	}
	rk.defGate = noDeferral
}

// materializePrecharge converts a deferred precharge close back into a
// real event at its reserved (time, ticket) position.
func (c *Controller) materializePrecharge(bk *bank, chIdx int, b bankID) {
	c.deferCleared(chIdx, b)
	c.q.ScheduleBoundSeq(bk.prechAt, bk.prechSeq, c.onPrecharge, nil, int32(chIdx), int32(b))
}

// reviveDispatch converts a deferred dispatching close back into a real
// precharge event: its forced-choice premise broke (a writeback arrived
// for the bank, or the rank acquired a refresh obligation), so the
// dispatch decision must be re-made live at the elided event's own
// position. The start-bank activation is withdrawn from the deferred
// plane; the revived event re-runs the full dispatch path.
func (c *Controller) reviveDispatch(chIdx int, b bankID) {
	ch := c.channels[chIdx]
	bk := &ch.banks[b]
	if !c.q.CancelDeferred(bk.prechSeq) {
		panic("memctrl: deferred dispatch activation already materialized")
	}
	bk.defDispatch = false
	bk.defReq = nil
	c.deferCleared(chIdx, b)
	c.q.ScheduleBoundSeq(bk.prechAt, bk.prechSeq, c.onPrecharge, nil, int32(chIdx), int32(b))
}

// reviveRankDispatches revives every deferred dispatching close of a
// rank. Called after settleRank on the refresh paths: a refresh
// obligation blocks dispatch, so any not-yet-due forced dispatch must
// be re-decided by a live event.
func (c *Controller) reviveRankDispatches(chIdx, rankIdx int) {
	ch := c.channels[chIdx]
	base := rankIdx * c.cfg.BanksPerRank
	for m := c.rank(chIdx, rankIdx).defMask; m != 0; m &= m - 1 {
		if b := bankID(base + bits.TrailingZeros64(m)); ch.banks[b].defDispatch {
			c.reviveDispatch(chIdx, b)
		}
	}
}

// grantBusEvent grants the freed channel bus to the next ready request.
func (c *Controller) grantBusEvent(now config.Time, _ any, a, _ int32) {
	c.channels[int(a)].grantArmed = false
	c.tryGrantBus(now, int(a))
}

// maybePowerdown drops an idle rank into the configured powerdown
// state, as today's aggressive controllers do (Section 4.2.3).
func (c *Controller) maybePowerdown(now config.Time, chIdx, rankIdx int) {
	if c.cfg.Powerdown == config.PowerdownNone || c.relocking {
		return
	}
	if pending, _ := c.rankLoad(chIdx, rankIdx); pending > 0 {
		return
	}
	rank := c.rank(chIdx, rankIdx).dev
	slow := c.cfg.Powerdown == config.PowerdownSlow
	if rank.EnterPowerdown(now, slow) && c.tel != nil {
		c.tel.PowerdownEnter(now, chIdx, rankIdx, slow)
	}
}

// refreshTickEvent is the bound form of refreshTimer.
func (c *Controller) refreshTickEvent(now config.Time, _ any, a, b int32) {
	c.refreshTimer(now, int(a), int(b))
}

// refreshTimer fires every tREFI per rank.
func (c *Controller) refreshTimer(now config.Time, chIdx, rankIdx int) {
	c.settleRank(now, chIdx, rankIdx, false)
	c.reviveRankDispatches(chIdx, rankIdx)
	c.q.ScheduleBound(now+c.cfg.Timing.RefreshInterval(), c.onRefreshTick, nil, int32(chIdx), int32(rankIdx))
	c.rank(chIdx, rankIdx).dev.SetRefreshPending()
	c.refreshKick(now, chIdx, rankIdx)
}

// refreshKick attempts to issue a pending refresh once the rank's
// pipeline has drained.
func (c *Controller) refreshKick(now config.Time, chIdx, rankIdx int) {
	rank := c.rank(chIdx, rankIdx).dev
	if !rank.RefreshBlocked() {
		return
	}
	if _, dispatched := c.rankLoad(chIdx, rankIdx); dispatched > 0 {
		return
	}
	until, ok := rank.TryStartRefresh(now)
	if !ok {
		return // still in service; the next FinishAccess re-kicks
	}
	if c.tel != nil {
		c.tel.Refresh(now, chIdx, rankIdx, until-now)
	}
	c.q.ScheduleBound(until, c.onRefreshDone, nil, int32(chIdx), int32(rankIdx))
}

// refreshDoneEvent completes a running refresh: a round that became
// pending mid-refresh starts now, before any dispatch or powerdown
// decision.
func (c *Controller) refreshDoneEvent(now config.Time, _ any, a, b int32) {
	chIdx, rankIdx := int(a), int(b)
	c.settleRank(now, chIdx, rankIdx, false)
	c.rank(chIdx, rankIdx).dev.RefreshDone(now)
	c.refreshKick(now, chIdx, rankIdx)
	c.kickRank(now, chIdx, rankIdx)
	c.maybePowerdown(now, chIdx, rankIdx)
}

// kickRank re-attempts dispatch on every bank of a rank (after a
// refresh or relock released it).
func (c *Controller) kickRank(now config.Time, chIdx, rankIdx int) {
	for bank := 0; bank < c.cfg.BanksPerRank; bank++ {
		c.tryDispatch(now, chIdx, c.bankID(rankIdx, bank))
	}
}

// FlushInterval closes the power-accounting interval at now and
// returns it: the operating point, and per channel the rank accounts
// and bus occupancy. Call before every frequency change and at
// reporting boundaries.
func (c *Controller) FlushInterval(now config.Time) power.Interval {
	iv := power.Interval{
		Duration: now - c.flushedAt,
		BusFreq:  c.timing.BusFreq,
		Channels: make([]power.ChannelSlice, len(c.channels)),
	}
	for chIdx, ch := range c.channels {
		slice := power.ChannelSlice{Busy: ch.busBusy}
		ch.busBusy = 0
		for rankIdx := 0; rankIdx < c.ranksPerCh; rankIdx++ {
			slice.DRAM.Add(c.flushRank(now, chIdx, rankIdx, slice.Busy))
		}
		iv.Channels[chIdx] = slice
	}
	c.flushedAt = now
	return iv
}

// flushRank closes one rank's accounting interval at now. busy is the
// channel's bus occupancy over the same interval. Termination (Section
// 2.1) is charged here, once per interval: a rank terminates every
// burst the channel's other ranks drive, and each burst adds its length
// both to the channel's occupancy and to the driving rank's own read or
// write time, so over the interval the other ranks' bursts total the
// occupancy less this rank's own.
func (c *Controller) flushRank(now config.Time, chIdx, rankIdx int, busy config.Time) dram.Account {
	c.settleRank(now, chIdx, rankIdx, true)
	acct := c.rank(chIdx, rankIdx).dev.Flush(now)
	acct.TermBurst = busy - acct.ReadBurst - acct.WriteBurst
	return acct
}

// RelockPenalty returns the halt duration of a switch to bus frequency
// f: 512 cycles at the new frequency plus 28 ns (Section 4.1).
func (c *Controller) RelockPenalty(f config.FreqMHz) config.Time {
	return f.Cycles(int64(c.cfg.Policy.RelockCycles)) + c.cfg.Policy.RelockExtra
}

// SetBusFrequency initiates a frequency switch of the whole memory
// subsystem — the paper's base mechanism. Memory dispatch halts for
// the relock penalty; queued requests wait and resume at the new
// operating point. The caller must flush the power interval first. It
// returns the time the new frequency becomes active. Switching to the
// current frequency is a no-op. The per-channel relock-done events
// hold consecutive tickets at one instant, so no other event can fire
// between them.
func (c *Controller) SetBusFrequency(now config.Time, f config.FreqMHz) config.Time {
	if !config.ValidBusFrequency(f) {
		panic(fmt.Sprintf("memctrl: invalid bus frequency %v", f))
	}
	if f == c.timing.BusFreq {
		return now
	}
	if c.relocking {
		panic("memctrl: frequency change while already relocking")
	}
	if c.flushedAt != now {
		panic(fmt.Sprintf("memctrl: frequency change at %v without flush (last flush %v)", now, c.flushedAt))
	}
	halt := c.RelockPenalty(f)
	c.relocking = true
	c.relockUntil = now + halt
	for chIdx := range c.channels {
		if c.tel != nil {
			c.tel.FreqTransition(now, chIdx, c.timing.BusFreq, f, halt)
		}
		c.q.ScheduleBound(c.relockUntil, c.onRelockDone, nil, int32(chIdx), int32(f))
	}
	return c.relockUntil
}

// onRelockDoneEvent closes the relock window for channel a; b carries
// the new bus frequency, which the first channel's event switches to.
// Dispatch resumes via a same-instant kick event per channel.
func (c *Controller) onRelockDoneEvent(now config.Time, _ any, a, b int32) {
	if c.relocking {
		c.setBusFreq(config.FreqMHz(b))
		c.relocking = false
	}
	c.q.ScheduleBound(c.q.Now(), c.onRelockKick, nil, a, 0)
}

// onRelockKickEvent re-kicks every rank and the bus of a channel whose
// relock window just closed.
func (c *Controller) onRelockKickEvent(now config.Time, _ any, a, _ int32) {
	for rankIdx := 0; rankIdx < c.ranksPerCh; rankIdx++ {
		c.kickRank(now, int(a), rankIdx)
	}
	c.tryGrantBus(now, int(a))
}

// onDoneEvent delivers a read completion to its core and recycles the
// Request that carried it.
func (c *Controller) onDoneEvent(now config.Time, env any, _, _ int32) {
	req := env.(*Request)
	done := req.Done
	c.putRequest(req)
	done(now)
}

// QueuedRequests returns the number of requests queued or in flight.
func (c *Controller) QueuedRequests() int {
	n := 0
	for _, ch := range c.channels {
		for i := range ch.banks {
			n += ch.banks[i].outstanding()
		}
	}
	return n
}
