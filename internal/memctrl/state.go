package memctrl

import (
	"fmt"
	"math/bits"

	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/event"
)

// This file is the checkpoint plane of the memory controller. All
// controller state is pure data except the in-flight Requests, which
// are referenced both from the controller's rings and from pending
// events; a RequestTable interns them into dense ids so both planes
// serialize references to the same table, and restore rebuilds one
// Request object per id so pointer identity (the defReq head check)
// survives the round trip.

// RequestState is the serializable image of one in-flight Request.
// Done is a live callback (the issuing core's completion handler), so
// only its presence is recorded; restore rebinds it from the core
// index.
type RequestState struct {
	Loc     config.Location `json:"loc"`
	Write   bool            `json:"write,omitempty"`
	Core    int             `json:"core"`
	HasDone bool            `json:"has_done,omitempty"`
	Arrived config.Time     `json:"arrived"`
	Ready   config.Time     `json:"ready"`
}

// RequestTable interns in-flight Requests during a save, assigning
// dense ids in encounter order. The controller's rings are interned
// first, then the event queue's save adds any request referenced only
// from a pending event; both walks are deterministic, so the table —
// and the whole checkpoint — is byte-stable for a given simulation
// state.
type RequestTable struct {
	reqs []*Request
	ids  map[*Request]int32
}

// NewRequestTable returns an empty table.
func NewRequestTable() *RequestTable {
	return &RequestTable{ids: map[*Request]int32{}}
}

// ID interns req and returns its dense id.
func (t *RequestTable) ID(req *Request) int32 {
	if id, ok := t.ids[req]; ok {
		return id
	}
	id := int32(len(t.reqs))
	t.reqs = append(t.reqs, req)
	t.ids[req] = id
	return id
}

// EncodeEnv is the event-registry env encoder for request-carrying
// event kinds.
func (t *RequestTable) EncodeEnv(env any) (int32, error) {
	req, ok := env.(*Request)
	if !ok {
		return 0, fmt.Errorf("memctrl: event env is %T, want *Request", env)
	}
	return t.ID(req), nil
}

// States serializes every interned request, in id order.
func (t *RequestTable) States() []RequestState {
	out := make([]RequestState, len(t.reqs))
	for i, req := range t.reqs {
		out[i] = RequestState{
			Loc:     req.Loc,
			Write:   req.Write,
			Core:    req.Core,
			HasDone: req.Done != nil,
			Arrived: req.Arrived,
			Ready:   req.ready,
		}
	}
	return out
}

// BankState is the pure-data image of one bank's controller-side
// state. Queue and WB hold request-table ids in FIFO order; DefReq is
// -1 when no dispatching deferral holds the bank.
type BankState struct {
	Queue         []int32     `json:"queue,omitempty"`
	WB            []int32     `json:"wb,omitempty"`
	Dispatched    bool        `json:"dispatched,omitempty"`
	PrechDeferred bool        `json:"prech_deferred,omitempty"`
	DefDispatch   bool        `json:"def_dispatch,omitempty"`
	PrechAt       config.Time `json:"prech_at,omitempty"`
	PrechSeq      uint64      `json:"prech_seq,omitempty"`
	DefReq        int32       `json:"def_req"`
}

// ChannelState is the pure-data image of one channel: banks, bus
// arbitration, deferral mirrors, and the operating point (from which
// the resolved timing is rebuilt on restore).
type ChannelState struct {
	Banks       []BankState    `json:"banks"`
	WBCount     int            `json:"wb_count"`
	BusFreeAt   config.Time    `json:"bus_free_at"`
	BusQueue    []int32        `json:"bus_queue,omitempty"`
	GrantArmed  bool           `json:"grant_armed,omitempty"`
	GrantSeq    uint64         `json:"grant_seq"`
	BusBusy     config.Time    `json:"bus_busy"`
	Outstanding []int          `json:"outstanding"`
	DefAts      []config.Time  `json:"def_ats"`
	DefSeqs     []uint64       `json:"def_seqs"`
	BusFreq     config.FreqMHz `json:"bus_freq"`
	DevFreq     config.FreqMHz `json:"dev_freq"`
	Relocking   bool           `json:"relocking,omitempty"`
	RelockUntil config.Time    `json:"relock_until"`
}

// ControllerState is the complete serializable image of a Controller.
type ControllerState struct {
	Requests   []RequestState     `json:"requests,omitempty"`
	Channels   []ChannelState     `json:"channels"`
	Ranks      [][]dram.RankState `json:"ranks"`
	Dispatched [][]int            `json:"dispatched"`
	Pending    [][]int            `json:"pending"`
	DefPrech   [][]int            `json:"def_prech"` // deferred closes per rank; Load checks it against DefAts
	DefGate    []config.Time      `json:"def_gate"`
	Counters   Counters           `json:"counters"`
	FlushedAt  config.Time        `json:"flushed_at"`
	Quiesce    config.Time        `json:"quiesce"`
}

func saveRing(r *reqRing, tbl *RequestTable) []int32 {
	if r.Len() == 0 {
		return nil
	}
	out := make([]int32, r.Len())
	for i := range out {
		out[i] = tbl.ID(r.At(i))
	}
	return out
}

// Save captures the controller's full state, interning every in-flight
// request into tbl. The caller completes the request table (the event
// queue's save may intern more) and then assigns tbl.States() to the
// returned state's Requests field.
func (c *Controller) Save(tbl *RequestTable) *ControllerState {
	st := &ControllerState{
		Channels:   make([]ChannelState, len(c.channels)),
		Ranks:      make([][]dram.RankState, len(c.ranks)),
		Dispatched: copy2D(c.dispatched),
		Pending:    copy2D(c.pending),
		DefPrech:   make([][]int, len(c.channels)),
		DefGate:    append([]config.Time(nil), c.defGate...),
		Counters:   c.Counters(),
		FlushedAt:  c.flushedAt,
		Quiesce:    c.quiesce,
	}
	for chIdx, ch := range c.channels {
		st.DefPrech[chIdx] = make([]int, c.ranksPerCh)
		for r := range st.DefPrech[chIdx] {
			st.DefPrech[chIdx][r] = bits.OnesCount64(c.defMask[chIdx*c.ranksPerCh+r])
		}
		cs := ChannelState{
			Banks:       make([]BankState, len(ch.banks)),
			WBCount:     ch.wbCount,
			BusFreeAt:   ch.busFreeAt,
			GrantArmed:  ch.grantArmed,
			GrantSeq:    uint64(ch.grantSeq),
			BusBusy:     ch.busBusy,
			Outstanding: append([]int(nil), ch.outstanding...),
			DefAts:      append([]config.Time(nil), ch.defAts...),
			DefSeqs:     append([]uint64(nil), ch.defSeqs...),
			BusFreq:     ch.timing.BusFreq,
			DevFreq:     ch.timing.DevFreq,
			Relocking:   ch.relocking,
			RelockUntil: ch.relockUntil,
		}
		for b := range ch.banks {
			bk := &ch.banks[b]
			bs := BankState{
				Queue:         saveRing(&bk.queue, tbl),
				WB:            saveRing(&bk.wb, tbl),
				Dispatched:    bk.dispatched,
				PrechDeferred: bk.prechDeferred,
				DefDispatch:   bk.defDispatch,
				PrechAt:       bk.prechAt,
				PrechSeq:      uint64(bk.prechSeq),
				DefReq:        -1,
			}
			if bk.defReq != nil {
				bs.DefReq = tbl.ID(bk.defReq)
			}
			cs.Banks[b] = bs
		}
		cs.BusQueue = saveRing(&ch.busQueue, tbl)
		st.Channels[chIdx] = cs
		st.Ranks[chIdx] = make([]dram.RankState, len(c.ranks[chIdx]))
		for r, rank := range c.ranks[chIdx] {
			st.Ranks[chIdx][r] = rank.Save()
		}
	}
	return st
}

// Load replaces the controller's state with st. doneFor returns the
// completion callback of a core's reads, rebinding each restored
// request's Done. It returns the rebuilt request table (id order), for
// decoding request-carrying events. The controller must be freshly
// constructed under the same geometry the state was saved from.
func (c *Controller) Load(st *ControllerState, doneFor func(core int) func(config.Time)) ([]*Request, error) {
	if len(st.Channels) != len(c.channels) || len(st.Ranks) != len(c.ranks) {
		return nil, fmt.Errorf("memctrl: state has %d channels, controller has %d", len(st.Channels), len(c.channels))
	}
	if len(st.Dispatched) != len(c.dispatched) || len(st.Pending) != len(c.pending) ||
		len(st.DefPrech) != len(c.channels) || len(st.DefGate) != len(c.defGate) {
		return nil, fmt.Errorf("memctrl: state bookkeeping dimensions do not match controller geometry")
	}
	if len(st.Counters.TLM) != len(c.counters.TLM) || len(st.Counters.PerChannel) != len(c.counters.PerChannel) {
		return nil, fmt.Errorf("memctrl: state counters sized for %d cores / %d channels, controller has %d / %d",
			len(st.Counters.TLM), len(st.Counters.PerChannel), len(c.counters.TLM), len(c.counters.PerChannel))
	}

	reqs := make([]*Request, len(st.Requests))
	for i, rs := range st.Requests {
		req := &Request{Loc: rs.Loc, Write: rs.Write, Core: rs.Core, Arrived: rs.Arrived, ready: rs.Ready}
		if rs.HasDone {
			if rs.Core < 0 || doneFor == nil {
				return nil, fmt.Errorf("memctrl: request %d has a completion callback but no core %d handler", i, rs.Core)
			}
			done := doneFor(rs.Core)
			if done == nil {
				return nil, fmt.Errorf("memctrl: request %d names core %d outside the system", i, rs.Core)
			}
			req.Done = done
		}
		reqs[i] = req
	}
	reqAt := func(id int32) (*Request, error) {
		if id < 0 || int(id) >= len(reqs) {
			return nil, fmt.Errorf("memctrl: request id %d out of range [0,%d)", id, len(reqs))
		}
		return reqs[id], nil
	}
	loadRing := func(r *reqRing, ids []int32) error {
		for _, id := range ids {
			req, err := reqAt(id)
			if err != nil {
				return err
			}
			r.Push(req)
		}
		return nil
	}

	clear(c.defMask)
	for chIdx, cs := range st.Channels {
		ch := c.channels[chIdx]
		if len(cs.Banks) != len(ch.banks) || len(cs.Outstanding) != len(ch.outstanding) ||
			len(cs.DefAts) != len(ch.defAts) || len(cs.DefSeqs) != len(ch.defSeqs) {
			return nil, fmt.Errorf("memctrl: channel %d state does not match bank geometry", chIdx)
		}
		if !config.ValidBusFrequency(cs.BusFreq) {
			return nil, fmt.Errorf("memctrl: channel %d bus frequency %v not on the ladder", chIdx, cs.BusFreq)
		}
		for b, bs := range cs.Banks {
			bk := &ch.banks[b]
			*bk = bank{
				dispatched:    bs.Dispatched,
				prechDeferred: bs.PrechDeferred,
				defDispatch:   bs.DefDispatch,
				prechAt:       bs.PrechAt,
				prechSeq:      event.Seq(bs.PrechSeq),
			}
			if err := loadRing(&bk.queue, bs.Queue); err != nil {
				return nil, err
			}
			if err := loadRing(&bk.wb, bs.WB); err != nil {
				return nil, err
			}
			if bs.DefReq >= 0 {
				req, err := reqAt(bs.DefReq)
				if err != nil {
					return nil, err
				}
				bk.defReq = req
			}
		}
		ch.wbCount = cs.WBCount
		ch.busFreeAt = cs.BusFreeAt
		ch.busQueue = reqRing{}
		if err := loadRing(&ch.busQueue, cs.BusQueue); err != nil {
			return nil, err
		}
		ch.grantArmed = cs.GrantArmed
		ch.grantSeq = event.Seq(cs.GrantSeq)
		ch.busBusy = cs.BusBusy
		copy(ch.outstanding, cs.Outstanding)
		copy(ch.defAts, cs.DefAts)
		for b, at := range ch.defAts {
			if at != noDeferral {
				c.defMask[chIdx*c.ranksPerCh+b/c.cfg.BanksPerRank] |= 1 << (b % c.cfg.BanksPerRank)
			}
		}
		copy(ch.defSeqs, cs.DefSeqs)
		ch.timing = dram.Resolve(c.cfg.Timing, cs.BusFreq, cs.DevFreq)
		ch.relocking = cs.Relocking
		ch.relockUntil = cs.RelockUntil

		if len(st.Ranks[chIdx]) != len(c.ranks[chIdx]) {
			return nil, fmt.Errorf("memctrl: channel %d state has %d ranks, controller has %d",
				chIdx, len(st.Ranks[chIdx]), len(c.ranks[chIdx]))
		}
		for r, rank := range c.ranks[chIdx] {
			if err := rank.Load(st.Ranks[chIdx][r]); err != nil {
				return nil, fmt.Errorf("memctrl: channel %d rank %d: %w", chIdx, r, err)
			}
		}
		if err := copyInto(c.dispatched[chIdx], st.Dispatched, chIdx); err != nil {
			return nil, err
		}
		if err := copyInto(c.pending[chIdx], st.Pending, chIdx); err != nil {
			return nil, err
		}
		if len(st.DefPrech[chIdx]) != c.ranksPerCh {
			return nil, fmt.Errorf("memctrl: state row %d has %d entries, controller has %d", chIdx, len(st.DefPrech[chIdx]), c.ranksPerCh)
		}
		for r, n := range st.DefPrech[chIdx] {
			if got := bits.OnesCount64(c.defMask[chIdx*c.ranksPerCh+r]); n != got {
				return nil, fmt.Errorf("memctrl: channel %d rank %d counts %d deferred closes, def_ats holds %d", chIdx, r, n, got)
			}
		}
	}
	copy(c.defGate, st.DefGate)
	c.counters = st.Counters.Clone()
	c.flushedAt = st.FlushedAt
	c.quiesce = st.Quiesce
	c.updateMCClock()
	return reqs, nil
}

// RegisterEvents registers the controller's pre-bound callback kinds
// with the checkpoint event registry. On save, reqEnv is the live
// RequestTable's EncodeEnv; on load, reqs indexes the rebuilt request
// list (decode side ignores reqEnv and vice versa — pass the side you
// have and nil/empty for the other).
func (c *Controller) RegisterEvents(reg *event.Registry, reqEnv func(env any) (int32, error), reqs []*Request) {
	reqDec := func(bfn event.Bound) func(owner int32) (event.Bound, any, error) {
		return func(owner int32) (event.Bound, any, error) {
			if owner < 0 || int(owner) >= len(reqs) {
				return nil, nil, fmt.Errorf("memctrl: request id %d out of range [0,%d)", owner, len(reqs))
			}
			return bfn, reqs[owner], nil
		}
	}
	bare := func(bfn event.Bound) func(owner int32) (event.Bound, any, error) {
		return func(int32) (event.Bound, any, error) { return bfn, nil, nil }
	}
	reg.RegisterBound("mc.start_bank", c.onStartBank, reqEnv, reqDec(c.onStartBank))
	reg.RegisterBound("mc.bus_ready", c.onBusReady, reqEnv, reqDec(c.onBusReady))
	reg.RegisterBound("mc.done", c.onDone, reqEnv, reqDec(c.onDone))
	reg.RegisterBound("mc.bank_kick", c.onBankKick, nil, bare(c.onBankKick))
	reg.RegisterBound("mc.precharge", c.onPrecharge, nil, bare(c.onPrecharge))
	reg.RegisterBound("mc.grant_bus", c.onGrantBus, nil, bare(c.onGrantBus))
	reg.RegisterBound("mc.refresh_tick", c.onRefreshTick, nil, bare(c.onRefreshTick))
	reg.RegisterBound("mc.refresh_done", c.onRefreshDone, nil, bare(c.onRefreshDone))
	reg.RegisterBound("mc.relock_done", c.onRelockDone, nil, bare(c.onRelockDone))
	reg.RegisterBound("mc.relock_kick", c.onRelockKick, nil, bare(c.onRelockKick))
}

func copy2D(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i, row := range src {
		out[i] = append([]int(nil), row...)
	}
	return out
}

func copyInto(dst []int, src [][]int, i int) error {
	if len(src[i]) != len(dst) {
		return fmt.Errorf("memctrl: state row %d has %d entries, controller has %d", i, len(src[i]), len(dst))
	}
	copy(dst, src[i])
	return nil
}
