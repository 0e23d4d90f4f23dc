// Package memctrl implements the integrated memory controller: per-bank
// request queues with closed-page row management, FCFS reads with
// writeback draining, the transfer-blocking bank/bus interaction of the
// paper's queueing model (Figure 4), rank powerdown management, refresh
// scheduling, the Section 3.1 performance counters, and the
// PLL/DLL-relock frequency-switching mechanism that MemScale adds.
//
// Frequencies are tracked per channel: the paper's base scheme always
// drives all channels together (SetBusFrequency), while the Section 6
// future-work extension can relock channels independently
// (SetChannelFrequency). The MC clock follows the fastest channel.
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

type bank struct {
	queue      reqRing // FIFO of reads waiting for this bank
	wb         reqRing // FIFO of writebacks targeting this bank
	dispatched bool    // a request occupies MC pipeline/bank/bus-wait

	// Deferred auto-precharge close (DESIGN.md §4g): when a grant leaves
	// the bank idle — or leaves it with a forced next dispatch — inside
	// the quiesce horizon, the precharge-done event is elided.
	// prechAt/prechSeq record the instant and the reserved ordering
	// ticket of the event that would have fired; settleRank replays or
	// materializes it on the rank's next touch. With defDispatch set,
	// the elided event's dispatch of defReq (the unambiguous queue head)
	// rides the deferred-schedule plane: its start-bank event
	// materializes at the ticket's exact position, and settlement
	// replays only the pop and the bookkeeping.
	prechDeferred bool
	defDispatch   bool
	prechAt       config.Time
	prechSeq      event.Seq
	defReq        *Request
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

	outstanding []int // per bank: queued + dispatched requests

	// defAts/defSeqs mirror banks[i].prechAt/prechSeq for banks holding
	// a deferred close (noDeferral sentinel otherwise), packed flat so
	// settleRank's earliest-deferral scan reads two cache lines instead
	// of eight scattered bank structs.
	defAts  []config.Time
	defSeqs []uint64

	timing      dram.Resolved // operating point of this channel
	relocking   bool
	relockUntil config.Time
}

// Controller is the memory controller for all channels.
type Controller struct {
	cfg    *config.Config
	q      *event.Queue
	mapper *config.AddressMapper

	// qs[chIdx] is the event queue that owns channel chIdx. Serially
	// every entry aliases q; under the sharded engine each channel
	// schedules on its shard's queue, so all controller event traffic —
	// per-channel by construction — stays shard-local.
	qs       []*event.Queue
	parallel bool

	channels []*channel
	ranks    [][]*dram.Rank // [channel][rank]

	// MC clock: double the fastest channel's bus frequency.
	mcBusFreq config.FreqMHz
	mcTime    config.Time

	// mcTimes[chIdx] replicates mcTime per channel for the sharded
	// engine: a relock completing inside a window may not scan the
	// other channels' operating points (their shards own them), so each
	// shard refreshes its own copy. The engine only runs under the
	// uniform governor, where every channel's frequency — and hence
	// every copy — is the global value.
	mcTimes []config.Time

	ranksPerCh int // cached cfg.RanksPerChannel(), for the defGate/defMask index

	// Per-rank dispatch bookkeeping for refresh/powerdown decisions.
	dispatched [][]int // requests dispatched but not yet through the bus
	pending    [][]int // requests queued or dispatched per rank

	// defMask has bit i set while bank i of the rank holds a deferred
	// close (its defAts entry is real), flattened like defGate, so
	// settlement visits only the deferred banks — usually one or two of
	// eight. config.Validate caps BanksPerRank at the mask's 64 bits.
	defMask []uint64

	// defGate is a lower bound on the earliest prechAt among a rank's
	// deferred closes (noDeferral when none are outstanding), flattened
	// to [chIdx*ranksPerChannel+rankIdx] so settleRank's hot gate — a
	// touch strictly before the bound settles nothing — is one load and
	// one compare, and the wrapper stays inlineable. Removing a deferral
	// may leave it stale-low; harmless, the next touch rescans and
	// tightens it.
	defGate []config.Time

	counters Counters

	flushedAt config.Time // start of the current power interval

	// tel, when non-nil, receives latency/queue-depth samples and
	// powerdown/refresh/relock events. Purely observational: no
	// scheduling decision reads it. All per-channel emissions route
	// through telCh — one staging cell per channel, each written only
	// by the channel's owning shard — so recording is lock-free under
	// the sharded engine; the recorder folds the cells back at window
	// edges (telemetry.Recorder.MergeChannels).
	tel   *telemetry.Recorder
	telCh []*telemetry.ChannelCell

	// quiesce is the coalescing horizon: the caller's promise that no
	// external sampling (counter window, power flush, instruction
	// readout) happens strictly before this time. Completions whose bus
	// transfer ends at or before the horizon may be delivered inline at
	// grant time instead of through a separate event — the closed-form
	// fast path of DESIGN.md §4g. Zero disables every fast path.
	quiesce config.Time

	// reqFree recycles Request objects per channel: every transaction
	// that clears the bus returns its Request to its channel's pool, so
	// the steady state allocates none and concurrent shards never share
	// a pool.
	reqFree [][]*Request

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
		cfg:       cfg,
		q:         q,
		mapper:    config.NewAddressMapper(cfg),
		mcBusFreq: config.MaxBusFreq,
	}
	c.mcTime = cfg.Timing.MCTime(config.MaxBusFreq)
	c.mcTimes = make([]config.Time, cfg.Channels)
	for i := range c.mcTimes {
		c.mcTimes[i] = c.mcTime
	}
	c.qs = make([]*event.Queue, cfg.Channels)
	for i := range c.qs {
		c.qs[i] = q
	}
	c.reqFree = make([][]*Request, cfg.Channels)
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

	banksPerChannel := cfg.RanksPerChannel() * cfg.BanksPerRank
	c.channels = make([]*channel, cfg.Channels)
	c.ranks = make([][]*dram.Rank, cfg.Channels)
	c.dispatched = make([][]int, cfg.Channels)
	c.pending = make([][]int, cfg.Channels)
	c.defMask = make([]uint64, cfg.Channels*cfg.RanksPerChannel())
	c.defGate = make([]config.Time, cfg.Channels*cfg.RanksPerChannel())
	for i := range c.defGate {
		c.defGate[i] = noDeferral
	}
	for chIdx := range c.channels {
		ch := &channel{
			banks:       make([]bank, banksPerChannel),
			outstanding: make([]int, banksPerChannel),
			defAts:      make([]config.Time, banksPerChannel),
			defSeqs:     make([]uint64, banksPerChannel),
			timing:      dram.Resolve(cfg.Timing, config.MaxBusFreq, c.devFreqFor(config.MaxBusFreq)),
		}
		for i := range ch.defAts {
			ch.defAts[i] = noDeferral
		}
		c.channels[chIdx] = ch
		c.ranks[chIdx] = make([]*dram.Rank, cfg.RanksPerChannel())
		c.dispatched[chIdx] = make([]int, cfg.RanksPerChannel())
		c.pending[chIdx] = make([]int, cfg.RanksPerChannel())
		for r := range c.ranks[chIdx] {
			c.ranks[chIdx][r] = dram.NewRank(cfg.BanksPerRank, &ch.timing)
		}
	}
	c.counters.TLM = make([]uint64, cfg.Cores)
	c.counters.PerChannel = make([]ChannelCounters, cfg.Channels)
	for i := range c.counters.PerChannel {
		c.counters.PerChannel[i].TLM = make([]uint64, cfg.Cores)
	}
	return c
}

// devFreqFor returns the DRAM device frequency paired with a bus
// frequency (lower and fixed under Decoupled DIMMs).
func (c *Controller) devFreqFor(bus config.FreqMHz) config.FreqMHz {
	if c.cfg.DecoupledDevFreq != 0 {
		return c.cfg.DecoupledDevFreq
	}
	return bus
}

// Start arms the per-rank refresh timers, staggered so ranks refresh
// round-robin across the tREFI interval as real controllers do.
func (c *Controller) Start() {
	interval := c.cfg.Timing.RefreshInterval()
	n := config.Time(c.cfg.TotalRanks())
	i := config.Time(0)
	for ch := range c.ranks {
		q := c.qs[ch]
		for r := range c.ranks[ch] {
			first := q.Now() + interval*(i+1)/n
			i++
			q.ScheduleBound(first, c.onRefreshTick, nil, int32(ch), int32(r))
			// Ranks that never see traffic still power down under the
			// powerdown policies.
			c.maybePowerdown(q.Now(), ch, r)
		}
	}
}

// BusFreq returns channel 0's bus frequency — the system frequency
// when all channels scale together, as in the paper's base scheme.
func (c *Controller) BusFreq() config.FreqMHz { return c.channels[0].timing.BusFreq }

// ChannelFreq returns one channel's bus frequency.
func (c *Controller) ChannelFreq(ch int) config.FreqMHz { return c.channels[ch].timing.BusFreq }

// MCBusFreq returns the bus frequency that currently sets the MC
// clock (the fastest channel).
func (c *Controller) MCBusFreq() config.FreqMHz { return c.mcBusFreq }

// DevFreq returns channel 0's DRAM device frequency.
func (c *Controller) DevFreq() config.FreqMHz { return c.channels[0].timing.DevFreq }

// SetTelemetry attaches a recorder. Pass nil to detach.
func (c *Controller) SetTelemetry(tel *telemetry.Recorder) {
	c.tel = tel
	c.telCh = tel.ChannelCells(len(c.channels))
}

// SetQuiesceHorizon declares that nothing outside the event queue will
// observe controller or core state strictly before t: no counter
// snapshot, power flush, or instruction readout. Until the horizon the
// controller may collapse request completions into closed-form inline
// updates rather than discrete events. The caller (the epoch loop)
// must re-declare the horizon before each drain; it never moves
// backwards within a run. Zero — the default — keeps every completion
// on the fully event-driven path.
func (c *Controller) SetQuiesceHorizon(t config.Time) { c.quiesce = t }

// SetShardQueues hands each channel to the event queue of its owning
// shard: qs[chIdx] receives all of channel chIdx's event traffic. The
// caller (the sharded engine) guarantees the channels of one queue are
// advanced by one goroutine at a time and that the controller runs
// under the uniform governor.
func (c *Controller) SetShardQueues(qs []*event.Queue) {
	if len(qs) != len(c.channels) {
		panic(fmt.Sprintf("memctrl: %d shard queues for %d channels", len(qs), len(c.channels)))
	}
	copy(c.qs, qs)
	c.parallel = true
}

// mcTimeAt returns the MC pipeline time as seen by a channel: the
// shared clock serially, the shard-local replica under the sharded
// engine.
func (c *Controller) mcTimeAt(chIdx int) config.Time {
	if c.parallel {
		return c.mcTimes[chIdx]
	}
	return c.mcTime
}

// Counters returns a snapshot of the performance counters. The hot
// paths accumulate only the per-channel replicas (shard-local under
// the sharded engine); the aggregate set is derived here by summation,
// which is exact — integer sums are order-independent — so serial and
// sharded runs read identical values.
func (c *Controller) Counters() Counters {
	out := Counters{
		TLM:        make([]uint64, len(c.counters.TLM)),
		PerChannel: make([]ChannelCounters, len(c.counters.PerChannel)),
	}
	for i := range c.counters.PerChannel {
		pc := &c.counters.PerChannel[i]
		out.PerChannel[i] = pc.clone()
		out.BTO += pc.BTO
		out.BTC += pc.BTC
		out.CTO += pc.CTO
		out.CTC += pc.CTC
		out.RBHC += pc.RBHC
		out.OBMC += pc.OBMC
		out.CBMC += pc.CBMC
		out.EPDC += pc.EPDC
		out.POCC += pc.POCC
		out.Reads += pc.Reads
		out.Writebacks += pc.Writebacks
		for core, v := range pc.TLM {
			out.TLM[core] += v
		}
	}
	return out
}

// Timing returns the resolved timing of channel 0 (the system timing
// under uniform scaling).
func (c *Controller) Timing() dram.Resolved { return c.channels[0].timing }

// getRequest takes a recycled Request from a channel's pool, or
// allocates one while the pool warms up.
func (c *Controller) getRequest(chIdx int) *Request {
	pool := c.reqFree[chIdx]
	if n := len(pool); n > 0 {
		req := pool[n-1]
		c.reqFree[chIdx] = pool[:n-1]
		return req
	}
	return &Request{}
}

// putRequest recycles a completed Request into its channel's pool. The
// struct is zeroed so the pool retains no callback or location from
// the previous transaction.
func (c *Controller) putRequest(req *Request) {
	chIdx := req.Loc.Channel
	*req = Request{}
	c.reqFree[chIdx] = append(c.reqFree[chIdx], req)
}

// Enqueue submits a memory transaction. Reads invoke done when their
// data transfer completes; writebacks ignore done.
func (c *Controller) Enqueue(now config.Time, line uint64, write bool, core int, done func(config.Time)) {
	loc := c.mapper.Map(line)
	c.settleRank(now, loc.Channel, loc.Rank, false)
	ch := c.channels[loc.Channel]
	b := c.bankID(loc.Rank, loc.Bank)
	if bk := &ch.banks[b]; bk.defDispatch &&
		(write || (bk.prechAt == now && uint64(bk.prechSeq) > c.qs[loc.Channel].FiringSeq())) {
		// Two ways an arrival can invalidate the bank's deferred
		// dispatch: a competing writeback un-forces the choice, and an
		// arrival at the close instant — ahead of the elided event's
		// ticket — dispatches the head itself (the bank is free at that
		// instant), leaving the close with nothing to dispatch. Either
		// way, put the decision back on a live event.
		c.reviveDispatch(loc.Channel, b)
	}
	req := c.getRequest(loc.Channel)
	*req = Request{Loc: loc, Write: write, Core: core, Done: done, Arrived: now}
	pc := &c.counters.PerChannel[loc.Channel]

	// Section 3.1 accumulators: outstanding work seen by the arrival.
	// Only the per-channel replicas are written on the hot path — they
	// are shard-local under the sharded engine — and the aggregate set
	// is derived by summation when read (Counters).
	pc.BTC++
	pc.BTO += uint64(ch.outstanding[b])
	pc.CTC++
	busOut := ch.busQueue.Len()
	if ch.busFreeAt > now {
		busOut++
	}
	pc.CTO += uint64(busOut)
	if !write {
		pc.TLM[core]++
	}

	if c.tel != nil {
		// Channel-local depth: the count an arrival sees on its own
		// channel's queues. Reading only this channel's bookkeeping
		// keeps the observation shard-local under the sharded engine.
		depth := 0
		for _, p := range c.pending[loc.Channel] {
			depth += p
		}
		c.telCh[loc.Channel].ObserveQueueDepth(depth)
	}

	ch.outstanding[b]++
	c.pending[loc.Channel][loc.Rank]++

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
	if ch.relocking || ch.banks[b].dispatched {
		return
	}
	rankIdx := int(b) / c.cfg.BanksPerRank
	rank := c.ranks[chIdx][rankIdx]
	if rank.RefreshBlocked() {
		return
	}
	free, ok := rank.BankFreeAt(int(b) % c.cfg.BanksPerRank)
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
		if bk := &ch.banks[b]; bk.prechDeferred && !bk.defDispatch {
			if bk.queue.Len() > 0 && bk.wb.Len() == 0 {
				bk.defDispatch = true
				bk.defReq = bk.queue.Peek()
				c.qs[chIdx].ScheduleViaSeq(bk.prechAt, bk.prechSeq, bk.prechAt+c.mcTimeAt(chIdx),
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
	c.dispatched[chIdx][rankIdx]++
	// The MC pipeline spends mcTime per request before the device
	// sees it (five MC cycles, Section 3.3).
	c.qs[chIdx].ScheduleBound(now+c.mcTimeAt(chIdx), c.onStartBank, req, int32(chIdx), int32(b))
}

func (c *Controller) startBankServiceEvent(now config.Time, env any, a, b int32) {
	c.startBankService(now, int(a), bankID(b), env.(*Request))
}

// startBankService issues the request to the DRAM bank.
func (c *Controller) startBankService(now config.Time, chIdx int, b bankID, req *Request) {
	ch := c.channels[chIdx]
	if ch.relocking {
		// The relock began after dispatch; resume when it ends.
		c.qs[chIdx].ScheduleBound(ch.relockUntil, c.onStartBank, req, int32(chIdx), int32(b))
		return
	}
	rankIdx := int(b) / c.cfg.BanksPerRank
	c.settleRank(now, chIdx, rankIdx, false)
	rank := c.ranks[chIdx][rankIdx]
	ready, kind, pdExit := rank.StartAccess(now, int(b)%c.cfg.BanksPerRank, req.Loc.Row)

	pc := &c.counters.PerChannel[chIdx]
	switch kind {
	case dram.RowHit:
		pc.RBHC++
	case dram.ClosedMiss:
		pc.CBMC++
	case dram.OpenMiss:
		pc.OBMC++
	}
	if kind != dram.RowHit {
		pc.POCC++
	}
	if pdExit {
		pc.EPDC++
		if c.tel != nil {
			c.telCh[chIdx].PowerdownExit(now, rankIdx)
		}
	}

	// Decoupled DIMMs: the device-side transfer into the
	// synchronization buffer runs at the slower device clock; the
	// channel burst cannot begin until it completes.
	if extra := ch.timing.DevBurst - ch.timing.Burst; extra > 0 {
		ready += extra
	}
	req.ready = ready
	c.qs[chIdx].ScheduleBound(ready, c.onBusReady, req, int32(chIdx), 0)
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
	if ch.relocking || ch.busQueue.Len() == 0 {
		return
	}
	if ch.busFreeAt > now {
		// The bus is busy and a request is waiting: arm the grant for
		// the instant the bus frees, unless one is already pending. The
		// reserved ticket puts it exactly where the eager formulation's
		// unconditional grant event would have fired.
		if !ch.grantArmed {
			ch.grantArmed = true
			c.qs[chIdx].ScheduleBoundSeq(ch.busFreeAt, ch.grantSeq, c.onGrantBus, nil, int32(chIdx), 0)
		}
		return
	}
	req := ch.busQueue.Pop()
	c.settleRank(now, chIdx, req.Loc.Rank, false)

	busStart := now
	busEnd := busStart + ch.timing.Burst
	ch.busFreeAt = busEnd
	ch.busBusy += busEnd - busStart

	b := c.bankID(req.Loc.Rank, req.Loc.Bank)
	rankIdx := req.Loc.Rank
	rank := c.ranks[chIdx][rankIdx]

	// Closed-page management: keep the row open only if the next
	// request already queued for this bank targets the same row
	// (Section 4.1); otherwise auto-precharge.
	keepOpen := false
	if q := &ch.banks[b].queue; q.Len() > 0 && q.Peek().Loc.Row == req.Loc.Row && !rank.RefreshBlocked() {
		keepOpen = true
	}

	prechargeDone := rank.FinishAccess(int(b)%c.cfg.BanksPerRank, busStart, busEnd, req.Write, keepOpen)

	// Termination on the channel's other ranks (Section 2.1).
	for r, other := range c.ranks[chIdx] {
		if r != rankIdx {
			other.AccountTermination(busEnd - busStart)
		}
	}

	ch.banks[b].dispatched = false
	c.dispatched[chIdx][rankIdx]--
	ch.outstanding[b]--
	c.pending[chIdx][rankIdx]--
	pc := &c.counters.PerChannel[chIdx]
	if req.Write {
		pc.Writebacks++
	} else {
		pc.Reads++
		if c.tel != nil {
			c.telCh[chIdx].ObserveReadLatency(busEnd - req.Arrived)
		}
	}

	if keepOpen {
		c.qs[chIdx].ScheduleBound(busEnd, c.onBankKick, nil, int32(chIdx), int32(b))
	} else if c.tel == nil && prechargeDone <= c.quiesce && ch.outstanding[b] == 0 {
		// Deferred precharge close: the bank has no queued work, so the
		// event's only effects would be the row close (a pure state
		// transition at a known time) and the powerdown check. Elide the
		// event, reserving its ordering ticket; the rank's next touch
		// settles it retroactively, or revives it as a real event if
		// work arrives before the instant passes. Inside the quiesce
		// horizon nothing samples the rank before settlement, and with
		// no telemetry attached no observer sees the transition late.
		bk := &ch.banks[b]
		bk.prechDeferred = true
		bk.prechAt = prechargeDone
		bk.prechSeq = c.qs[chIdx].ReserveSeq()
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
		bk.prechDeferred = true
		bk.defDispatch = true
		bk.prechAt = prechargeDone
		bk.prechSeq = c.qs[chIdx].ReserveSeq()
		bk.defReq = bk.queue.Peek()
		ch.defAts[b] = prechargeDone
		ch.defSeqs[b] = uint64(bk.prechSeq)
		c.deferAdded(chIdx, b, prechargeDone)
		c.qs[chIdx].ScheduleViaSeq(prechargeDone, bk.prechSeq, prechargeDone+c.mcTimeAt(chIdx),
			c.onStartBank, bk.defReq, int32(chIdx), int32(b))
	} else {
		c.qs[chIdx].ScheduleBound(prechargeDone, c.onPrecharge, nil, int32(chIdx), int32(b))
	}

	if req.Done != nil && !req.Write && busEnd > c.quiesce {
		// The completion event carries the Request itself so a
		// checkpoint can name it; onDone recycles it after delivering.
		c.qs[chIdx].ScheduleBound(busEnd, c.onDone, req, 0, 0)
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
		c.qs[chIdx].ScheduleBound(busEnd, c.onGrantBus, nil, int32(chIdx), 0)
	} else {
		ch.grantSeq = c.qs[chIdx].ReserveSeq()
	}
}

// bankKickEvent re-attempts dispatch on one bank (after a kept-open row
// finished its burst).
func (c *Controller) bankKickEvent(now config.Time, _ any, a, b int32) {
	c.settleRank(now, int(a), int(b)/c.cfg.BanksPerRank, false)
	c.tryDispatch(now, int(a), bankID(b))
}

// prechargeEvent completes a bank's auto-precharge, re-kicks dispatch,
// and reconsiders powerdown.
func (c *Controller) prechargeEvent(now config.Time, _ any, a, b int32) {
	chIdx, bk := int(a), bankID(b)
	rankIdx := int(bk) / c.cfg.BanksPerRank
	c.settleRank(now, chIdx, rankIdx, false)
	c.ranks[chIdx][rankIdx].PrechargeDone(now, int(bk)%c.cfg.BanksPerRank)
	c.tryDispatch(now, chIdx, bk)
	c.maybePowerdown(now, chIdx, rankIdx)
}

// deferAdded records a new deferred close of bank b for its rank,
// tightening the earliest-instant bound.
func (c *Controller) deferAdded(chIdx int, b bankID, at config.Time) {
	g := chIdx*c.ranksPerCh + int(b)/c.cfg.BanksPerRank
	if at < c.defGate[g] {
		c.defGate[g] = at
	}
	c.defMask[g] |= 1 << (int(b) % c.cfg.BanksPerRank)
}

// deferCleared drops bank b's deferred close from the rank's
// bookkeeping.
func (c *Controller) deferCleared(chIdx int, b bankID) {
	c.channels[chIdx].defAts[b] = noDeferral
	c.defMask[chIdx*c.ranksPerCh+int(b)/c.cfg.BanksPerRank] &^= 1 << (int(b) % c.cfg.BanksPerRank)
}

// settleRank applies any deferred precharge closes for a rank whose
// instant has been reached, exactly as the elided events would have,
// in the (time, ticket) order those events would have fired in. It is
// called at the top of every path that reads or mutates rank state or
// the rank's pending/dispatched bookkeeping, so between a deferred
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
	if c.defGate[chIdx*c.ranksPerCh+rankIdx] > now {
		return
	}
	c.settleRankSlow(now, chIdx, rankIdx, boundary)
}

func (c *Controller) settleRankSlow(now config.Time, chIdx, rankIdx int, boundary bool) {
	ch := c.channels[chIdx]
	base := rankIdx * c.cfg.BanksPerRank
	g := chIdx*c.ranksPerCh + rankIdx
	for c.defMask[g] != 0 {
		m := c.defMask[g]
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
			c.defGate[g] = bk.prechAt // exact again
			return                    // still in the future; revival on arrival handles it
		}
		if !boundary && bk.prechAt == now && uint64(bk.prechSeq) > c.qs[chIdx].FiringSeq() {
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
		bk.prechDeferred = false
		c.deferCleared(chIdx, b)
		c.ranks[chIdx][rankIdx].PrechargeDone(at, int(b)%c.cfg.BanksPerRank)
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
			c.dispatched[chIdx][rankIdx]++
		} else {
			// The bank had no queued work at prechAt (an arrival would
			// have settled or materialized first), so the elided event's
			// dispatch attempt reduces to the powerdown check.
			c.maybePowerdown(at, chIdx, rankIdx)
		}
	}
	c.defGate[g] = noDeferral
}

// materializePrecharge converts a deferred precharge close back into a
// real event at its reserved (time, ticket) position.
func (c *Controller) materializePrecharge(bk *bank, chIdx int, b bankID) {
	bk.prechDeferred = false
	c.deferCleared(chIdx, b)
	c.qs[chIdx].ScheduleBoundSeq(bk.prechAt, bk.prechSeq, c.onPrecharge, nil, int32(chIdx), int32(b))
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
	if !c.qs[chIdx].CancelDeferred(bk.prechSeq) {
		panic("memctrl: deferred dispatch activation already materialized")
	}
	bk.prechDeferred = false
	bk.defDispatch = false
	bk.defReq = nil
	c.deferCleared(chIdx, b)
	c.qs[chIdx].ScheduleBoundSeq(bk.prechAt, bk.prechSeq, c.onPrecharge, nil, int32(chIdx), int32(b))
}

// reviveRankDispatches revives every deferred dispatching close of a
// rank. Called after settleRank on the refresh paths: a refresh
// obligation blocks dispatch, so any not-yet-due forced dispatch must
// be re-decided by a live event.
func (c *Controller) reviveRankDispatches(chIdx, rankIdx int) {
	ch := c.channels[chIdx]
	base := rankIdx * c.cfg.BanksPerRank
	for m := c.defMask[chIdx*c.ranksPerCh+rankIdx]; m != 0; m &= m - 1 {
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
	if c.cfg.Powerdown == config.PowerdownNone || c.channels[chIdx].relocking {
		return
	}
	if c.pending[chIdx][rankIdx] > 0 || c.dispatched[chIdx][rankIdx] > 0 {
		return
	}
	rank := c.ranks[chIdx][rankIdx]
	slow := c.cfg.Powerdown == config.PowerdownSlow
	if rank.EnterPowerdown(now, slow) && c.tel != nil {
		c.telCh[chIdx].PowerdownEnter(now, rankIdx, slow)
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
	c.qs[chIdx].ScheduleBound(now+c.cfg.Timing.RefreshInterval(), c.onRefreshTick, nil, int32(chIdx), int32(rankIdx))
	c.ranks[chIdx][rankIdx].SetRefreshPending()
	c.refreshKick(now, chIdx, rankIdx)
}

// refreshKick attempts to issue a pending refresh once the rank's
// pipeline has drained.
func (c *Controller) refreshKick(now config.Time, chIdx, rankIdx int) {
	rank := c.ranks[chIdx][rankIdx]
	if !rank.RefreshBlocked() || c.dispatched[chIdx][rankIdx] > 0 {
		return
	}
	until, ok := rank.TryStartRefresh(now)
	if !ok {
		return // still in service; the next FinishAccess re-kicks
	}
	if c.tel != nil {
		c.telCh[chIdx].Refresh(now, rankIdx, until-now)
	}
	c.qs[chIdx].ScheduleBound(until, c.onRefreshDone, nil, int32(chIdx), int32(rankIdx))
}

// refreshDoneEvent completes a running refresh: a round that became
// pending mid-refresh starts now, before any dispatch or powerdown
// decision.
func (c *Controller) refreshDoneEvent(now config.Time, _ any, a, b int32) {
	chIdx, rankIdx := int(a), int(b)
	c.settleRank(now, chIdx, rankIdx, false)
	c.ranks[chIdx][rankIdx].RefreshDone(now)
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
// returns it: per-channel rank accounts, bus occupancies, and
// operating points, plus the MC reference frequency. Call before every
// frequency change and at reporting boundaries.
func (c *Controller) FlushInterval(now config.Time) power.Interval {
	if c.parallel {
		// Relocks completing inside a window refresh only their shard's
		// clock replica; settle the shared MC clock now that every shard
		// sits at the window edge.
		c.updateMCClock()
	}
	iv := power.Interval{
		Duration:  now - c.flushedAt,
		MCBusFreq: c.mcBusFreq,
		Channels:  make([]power.ChannelSlice, len(c.channels)),
	}
	for chIdx, ch := range c.channels {
		slice := power.ChannelSlice{
			BusFreq: ch.timing.BusFreq,
			DevFreq: ch.timing.DevFreq,
			Busy:    ch.busBusy,
		}
		ch.busBusy = 0
		for rankIdx, rank := range c.ranks[chIdx] {
			c.settleRank(now, chIdx, rankIdx, true)
			slice.DRAM.Add(rank.Flush(now))
		}
		iv.Channels[chIdx] = slice
	}
	c.flushedAt = now
	return iv
}

// RelockPenalty returns the halt duration of a switch to bus frequency
// f: 512 cycles at the new frequency plus 28 ns (Section 4.1).
func (c *Controller) RelockPenalty(f config.FreqMHz) config.Time {
	return f.Cycles(int64(c.cfg.Policy.RelockCycles)) + c.cfg.Policy.RelockExtra
}

// SetBusFrequency initiates a frequency switch of every channel — the
// paper's base mechanism. Memory dispatch halts for the relock
// penalty; queued requests wait and resume at the new operating point.
// The caller must flush the power interval first. It returns the time
// the new frequency becomes active. Switching to the current frequency
// is a no-op.
func (c *Controller) SetBusFrequency(now config.Time, f config.FreqMHz) config.Time {
	return c.SetBusFrequencyStalled(now, f, 0)
}

// SetBusFrequencyStalled is SetBusFrequency with an extra halt added
// to every channel's relock window — the fault plane's model of
// PLL/DLL relock attempts that fail and are retried with backoff
// before the lock finally takes. The frequency still lands; the
// channels just stay dark longer.
func (c *Controller) SetBusFrequencyStalled(now config.Time, f config.FreqMHz, extra config.Time) config.Time {
	applied := now
	for ch := range c.channels {
		if at := c.setChannelFrequency(now, ch, f, extra); at > applied {
			applied = at
		}
	}
	return applied
}

// SetChannelFrequency relocks a single channel to bus frequency f (the
// Section 6 future-work mechanism). Requirements are as for
// SetBusFrequency. Returns when the channel resumes.
func (c *Controller) SetChannelFrequency(now config.Time, chIdx int, f config.FreqMHz) config.Time {
	return c.setChannelFrequency(now, chIdx, f, 0)
}

func (c *Controller) setChannelFrequency(now config.Time, chIdx int, f config.FreqMHz, extra config.Time) config.Time {
	if !config.ValidBusFrequency(f) {
		panic(fmt.Sprintf("memctrl: invalid bus frequency %v", f))
	}
	if extra < 0 {
		panic(fmt.Sprintf("memctrl: negative relock stall %v", extra))
	}
	ch := c.channels[chIdx]
	if f == ch.timing.BusFreq {
		return now
	}
	if ch.relocking {
		panic(fmt.Sprintf("memctrl: channel %d frequency change while already relocking", chIdx))
	}
	if c.flushedAt != now {
		panic(fmt.Sprintf("memctrl: frequency change at %v without flush (last flush %v)", now, c.flushedAt))
	}
	halt := c.RelockPenalty(f) + extra
	ch.relocking = true
	ch.relockUntil = now + halt
	if c.tel != nil {
		c.telCh[chIdx].FreqTransition(now, ch.timing.BusFreq, f, halt)
	}
	c.qs[chIdx].ScheduleBound(ch.relockUntil, c.onRelockDone, nil, int32(chIdx), int32(f))
	return ch.relockUntil
}

// StallChannels halts dispatch on every channel until now+stall
// without changing any operating point — the fault plane's abandoned
// relock, where every bounded retry failed and the old frequency
// stays. Queued requests wait out the stall and resume unchanged.
// Channels must not already be relocking.
func (c *Controller) StallChannels(now config.Time, stall config.Time) {
	if stall <= 0 {
		return
	}
	for chIdx, ch := range c.channels {
		if ch.relocking {
			panic(fmt.Sprintf("memctrl: channel %d stall while already relocking", chIdx))
		}
		ch.relocking = true
		ch.relockUntil = now + stall
		// b == 0 marks a pure stall: the operating point is unchanged,
		// so onRelockDone skips the timing/MC-clock update.
		c.qs[chIdx].ScheduleBound(ch.relockUntil, c.onRelockDone, nil, int32(chIdx), 0)
	}
}

// onRelockDoneEvent completes a channel's relock window. b carries the
// new bus frequency, or 0 for the fault plane's abandoned-relock stall
// (the old operating point stays). Dispatch resumes via a same-instant
// kick event so that when several channels finish relocking at the
// same timestamp (the uniform switch), the MC clock settles before any
// request re-dispatches.
func (c *Controller) onRelockDoneEvent(now config.Time, _ any, a, b int32) {
	ch := c.channels[a]
	if b != 0 {
		f := config.FreqMHz(b)
		ch.timing = dram.Resolve(c.cfg.Timing, f, c.devFreqFor(f))
		ch.relocking = false
		if c.parallel {
			// Other channels belong to other shards mid-window, so only
			// the shard-local clock replica is refreshed here. Parallel
			// runs use the uniform governor: every channel relocks to the
			// same frequency, so the local value is the global one; the
			// shared clock is re-derived at the next window edge
			// (FlushInterval).
			c.mcTimes[a] = c.cfg.Timing.MCTime(f)
		} else {
			c.updateMCClock()
		}
	} else {
		ch.relocking = false
	}
	c.qs[a].AfterBound(0, c.onRelockKick, nil, a, 0)
}

// onRelockKickEvent re-kicks every rank and the bus of a channel whose
// relock window just closed.
func (c *Controller) onRelockKickEvent(now config.Time, _ any, a, _ int32) {
	for rankIdx := range c.ranks[a] {
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

// ForceRefresh models a retention emergency: every rank immediately
// owes an all-bank refresh on top of its tREFI schedule. It returns
// how many ranks were newly marked — ranks that already owed a refresh
// absorb the emergency into the outstanding obligation.
func (c *Controller) ForceRefresh(now config.Time) (marked int) {
	for chIdx := range c.ranks {
		for rankIdx, rank := range c.ranks[chIdx] {
			c.settleRank(now, chIdx, rankIdx, false)
			c.reviveRankDispatches(chIdx, rankIdx)
			if rank.SetRefreshPending() {
				marked++
			}
			c.refreshKick(now, chIdx, rankIdx)
		}
	}
	return marked
}

// updateMCClock re-derives the MC clock from the fastest channel.
func (c *Controller) updateMCClock() {
	max := config.MinBusFreq
	for _, ch := range c.channels {
		if ch.timing.BusFreq > max {
			max = ch.timing.BusFreq
		}
	}
	c.mcBusFreq = max
	c.mcTime = c.cfg.Timing.MCTime(max)
	for i := range c.mcTimes {
		c.mcTimes[i] = c.mcTime
	}
}

// Relocking reports whether any channel's frequency switch is in
// progress.
func (c *Controller) Relocking() bool {
	for _, ch := range c.channels {
		if ch.relocking {
			return true
		}
	}
	return false
}

// QueuedRequests returns the number of requests queued or in flight.
func (c *Controller) QueuedRequests() int {
	n := 0
	for _, pend := range c.pending {
		for _, p := range pend {
			n += p
		}
	}
	return n
}
