package memctrl

import (
	"encoding/json"
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
// arbitration and deferral mirrors.
type ChannelState struct {
	Banks       []BankState   `json:"banks"`
	WBCount     int           `json:"wb_count"`
	BusFreeAt   config.Time   `json:"bus_free_at"`
	BusQueue    []int32       `json:"bus_queue,omitempty"`
	GrantArmed  bool          `json:"grant_armed,omitempty"`
	GrantSeq    uint64        `json:"grant_seq"`
	BusBusy     config.Time   `json:"bus_busy"`
	Outstanding []int         `json:"outstanding"`
	DefAts      []config.Time `json:"def_ats"`
	DefSeqs     []uint64      `json:"def_seqs"`
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

	// The operating point, from whose bus frequency Load rebuilds the
	// timing and clocks. Images of schema 1.2 and earlier carry a copy
	// per channel instead, which UnmarshalJSON keeps in legacy.
	BusFreq     config.FreqMHz `json:"bus_freq,omitempty"`
	Relocking   bool           `json:"relocking,omitempty"`
	RelockUntil config.Time    `json:"relock_until,omitempty"`
	legacy      []channelPoint
}

// channelPoint is one channel's copy of the operating point in an
// image of schema 1.2 or earlier.
type channelPoint struct {
	BusFreq     config.FreqMHz `json:"bus_freq"`
	DevFreq     config.FreqMHz `json:"dev_freq"`
	Relocking   bool           `json:"relocking"`
	RelockUntil config.Time    `json:"relock_until"`
}

// UnmarshalJSON decodes an image of any 1.x schema. An image without
// the controller's bus_freq predates schema 1.3, so its per-channel
// operating points are decoded too.
func (st *ControllerState) UnmarshalJSON(data []byte) error {
	type image ControllerState // drops the method, not the fields
	if err := json.Unmarshal(data, (*image)(st)); err != nil {
		return err
	}
	if st.BusFreq != 0 {
		return nil
	}
	var old struct {
		Channels []channelPoint `json:"channels"`
	}
	if err := json.Unmarshal(data, &old); err != nil {
		return err
	}
	st.legacy = old.Channels
	return nil
}

// point returns the image's operating point. The copies of a legacy
// image must agree, at the device clock cfg derives from their bus
// frequency: the simulator switches all channels together and never
// runs the devices at another clock.
func (st *ControllerState) point(cfg *config.Config) (channelPoint, error) {
	p := channelPoint{st.BusFreq, cfg.DevFreq(st.BusFreq), st.Relocking, st.RelockUntil}
	if len(st.legacy) > 0 {
		p = st.legacy[0]
	}
	for i, cp := range st.legacy {
		if cp != p {
			return p, fmt.Errorf("memctrl: channel %d operating point %+v disagrees with channel 0's %+v", i, cp, p)
		}
	}
	if !config.ValidBusFrequency(p.BusFreq) {
		return p, fmt.Errorf("memctrl: bus frequency %v not on the ladder", p.BusFreq)
	}
	if want := cfg.DevFreq(p.BusFreq); p.DevFreq != want {
		return p, fmt.Errorf("memctrl: device clock %v, bus frequency %v derives %v", p.DevFreq, p.BusFreq, want)
	}
	return p, nil
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
// returned state's Requests field. The image's request counts are
// derived from the bank records; Load checks them against the rings.
func (c *Controller) Save(tbl *RequestTable) *ControllerState {
	nch := len(c.channels)
	st := &ControllerState{
		Channels:   make([]ChannelState, nch),
		Ranks:      make([][]dram.RankState, nch),
		Dispatched: make([][]int, nch),
		Pending:    make([][]int, nch),
		DefPrech:   make([][]int, nch),
		DefGate:    make([]config.Time, 0, len(c.ranks)),
		Counters:   c.Counters(),
		FlushedAt:  c.flushedAt,
		Quiesce:    c.quiesce,

		BusFreq:     c.timing.BusFreq,
		Relocking:   c.relocking,
		RelockUntil: c.relockUntil,
	}
	for chIdx, ch := range c.channels {
		st.Ranks[chIdx] = make([]dram.RankState, c.ranksPerCh)
		st.Dispatched[chIdx] = make([]int, c.ranksPerCh)
		st.Pending[chIdx] = make([]int, c.ranksPerCh)
		st.DefPrech[chIdx] = make([]int, c.ranksPerCh)
		for r := range st.Ranks[chIdx] {
			rk := c.rank(chIdx, r)
			st.Ranks[chIdx][r] = rk.dev.Save()
			st.DefGate = append(st.DefGate, rk.defGate)
			st.Pending[chIdx][r], st.Dispatched[chIdx][r] = c.rankLoad(chIdx, r)
			st.DefPrech[chIdx][r] = bits.OnesCount64(rk.defMask)
		}
		cs := ChannelState{
			Banks:       make([]BankState, len(ch.banks)),
			WBCount:     ch.wbCount,
			BusFreeAt:   ch.busFreeAt,
			GrantArmed:  ch.grantArmed,
			GrantSeq:    uint64(ch.grantSeq),
			BusBusy:     ch.busBusy,
			Outstanding: make([]int, len(ch.banks)),
			DefAts:      append([]config.Time(nil), ch.defAts...),
			DefSeqs:     append([]uint64(nil), ch.defSeqs...),
		}
		for b := range ch.banks {
			bk := &ch.banks[b]
			cs.Outstanding[b] = bk.outstanding()
			bs := BankState{
				Queue:         saveRing(&bk.queue, tbl),
				WB:            saveRing(&bk.wb, tbl),
				Dispatched:    bk.dispatched,
				PrechDeferred: ch.defAts[b] != noDeferral,
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
	}
	return st
}

// Load replaces the controller's state with st. doneFor returns the
// completion callback of a core's reads, rebinding each restored
// request's Done. It returns the rebuilt request table (id order), for
// decoding request-carrying events. The controller must be freshly
// constructed under the same geometry the state was saved from. Load
// rejects request counts that disagree with the rings and dispatch
// flags, and deferral flags and counts that disagree with def_ats.
func (c *Controller) Load(st *ControllerState, doneFor func(core int) func(config.Time)) ([]*Request, error) {
	nch := len(c.channels)
	if len(st.Channels) != nch || len(st.Ranks) != nch {
		return nil, fmt.Errorf("memctrl: state has %d channels, controller has %d", len(st.Channels), nch)
	}
	if len(st.Dispatched) != nch || len(st.Pending) != nch || len(st.DefPrech) != nch || len(st.DefGate) != len(c.ranks) {
		return nil, fmt.Errorf("memctrl: state bookkeeping dimensions do not match controller geometry")
	}
	if len(st.Counters.TLM) != len(c.counters.TLM) {
		return nil, fmt.Errorf("memctrl: state counters sized for %d cores, controller has %d",
			len(st.Counters.TLM), len(c.counters.TLM))
	}
	p, err := st.point(c.cfg)
	if err != nil {
		return nil, err
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

	for chIdx, cs := range st.Channels {
		ch := c.channels[chIdx]
		if len(cs.Banks) != len(ch.banks) || len(cs.Outstanding) != len(ch.banks) ||
			len(cs.DefAts) != len(ch.defAts) || len(cs.DefSeqs) != len(ch.defSeqs) {
			return nil, fmt.Errorf("memctrl: channel %d state does not match bank geometry", chIdx)
		}
		wbCount := 0
		for b, bs := range cs.Banks {
			bk := &ch.banks[b]
			*bk = bank{
				dispatched:  bs.Dispatched,
				defDispatch: bs.DefDispatch,
				prechAt:     bs.PrechAt,
				prechSeq:    event.Seq(bs.PrechSeq),
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
			if bs.PrechDeferred != (cs.DefAts[b] != noDeferral) {
				return nil, fmt.Errorf("memctrl: channel %d bank %d: prech_deferred %v, def_ats %v", chIdx, b, bs.PrechDeferred, cs.DefAts[b])
			}
			if n := cs.Outstanding[b]; n != bk.outstanding() {
				return nil, fmt.Errorf("memctrl: channel %d bank %d: outstanding %d, its rings and flag hold %d", chIdx, b, n, bk.outstanding())
			}
			wbCount += bk.wb.Len()
		}
		if cs.WBCount != wbCount {
			return nil, fmt.Errorf("memctrl: channel %d: wb_count %d, its banks queue %d writebacks", chIdx, cs.WBCount, wbCount)
		}
		ch.wbCount = wbCount
		ch.busFreeAt = cs.BusFreeAt
		ch.busQueue = reqRing{}
		if err := loadRing(&ch.busQueue, cs.BusQueue); err != nil {
			return nil, err
		}
		ch.grantArmed = cs.GrantArmed
		ch.grantSeq = event.Seq(cs.GrantSeq)
		ch.busBusy = cs.BusBusy
		copy(ch.defAts, cs.DefAts)
		copy(ch.defSeqs, cs.DefSeqs)

		if len(st.Ranks[chIdx]) != c.ranksPerCh || len(st.Pending[chIdx]) != c.ranksPerCh ||
			len(st.Dispatched[chIdx]) != c.ranksPerCh || len(st.DefPrech[chIdx]) != c.ranksPerCh {
			return nil, fmt.Errorf("memctrl: channel %d state does not match rank geometry (%d ranks)", chIdx, c.ranksPerCh)
		}
		for r := range st.Ranks[chIdx] {
			rk := c.rank(chIdx, r)
			rk.defGate, rk.defMask = st.DefGate[chIdx*c.ranksPerCh+r], 0
			for i, at := range ch.defAts[r*c.cfg.BanksPerRank : (r+1)*c.cfg.BanksPerRank] {
				if at != noDeferral {
					rk.defMask |= 1 << i
				}
			}
			if err := rk.dev.Load(st.Ranks[chIdx][r]); err != nil {
				return nil, fmt.Errorf("memctrl: channel %d rank %d: %w", chIdx, r, err)
			}
			pending, dispatched := c.rankLoad(chIdx, r)
			if n := st.Pending[chIdx][r]; n != pending {
				return nil, fmt.Errorf("memctrl: channel %d rank %d: pending %d, its banks hold %d requests", chIdx, r, n, pending)
			}
			if n := st.Dispatched[chIdx][r]; n != dispatched {
				return nil, fmt.Errorf("memctrl: channel %d rank %d: dispatched %d, %d of its banks hold a dispatched request", chIdx, r, n, dispatched)
			}
			if n, got := st.DefPrech[chIdx][r], bits.OnesCount64(rk.defMask); n != got {
				return nil, fmt.Errorf("memctrl: channel %d rank %d counts %d deferred closes, def_ats holds %d", chIdx, r, n, got)
			}
		}
	}
	c.counters = st.Counters.Clone()
	c.flushedAt = st.FlushedAt
	c.quiesce = st.Quiesce
	c.setBusFreq(p.BusFreq)
	c.relocking = p.Relocking
	c.relockUntil = p.RelockUntil
	return reqs, nil
}

// CheckRelock cross-checks a loaded controller against the pending
// events of the image it was loaded with: a relock window closes only
// through one mc.relock_done per channel, all scheduled by the switch
// that opened it, so a relocking controller must have exactly that many
// pending and an idle one none.
func (c *Controller) CheckRelock(ev *event.State) error {
	want := 0
	if c.relocking {
		want = len(c.channels)
	}
	if got := ev.Pending("mc.relock_done"); got != want {
		return fmt.Errorf("memctrl: relocking %v with %d pending relock completions, want %d", c.relocking, got, want)
	}
	return nil
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
