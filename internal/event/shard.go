package event

import (
	"fmt"
	"sort"
	"sync"

	"memscale/internal/config"
)

// ShardSet is a conservatively synchronized set of event queues that
// together behave like one serial Queue over a partitioned simulation.
// Each shard owns a disjoint subset of the simulated components (the
// memory channels and the cores bound to them) and advances its own
// queue; shards only run concurrently inside a time window whose edge
// the caller guarantees free of cross-shard interaction, so no locks
// guard the queues themselves.
//
// Sequence numbers are allocated from disjoint residue classes of one
// notional global counter (shard j issues j+n, j+2n, ... of an n-shard
// set), which keeps the merged (time, seq) order of all shards both
// total and consistent with each shard's local order. Events of
// different shards never interact inside a window, and all same-instant
// ordering decisions in the simulator compare only seqs of the same
// shard, so the residue-class renumbering is unobservable — the
// parallel run is bit-identical to the serial one.
//
// Cross-shard events (the refresh storms a fault plan injects at an
// epoch edge) are exchanged only at window edges via reserved per-shard
// tickets: RunCross drains every shard exactly to its ticket's position
// and then executes the callback serially, which is precisely where the
// serial engine would have fired the single cross event.
type ShardSet struct {
	qs []*Queue

	// crossFired counts cross-shard callbacks executed by RunCross;
	// Fired adds it to the per-shard totals so the merged count matches
	// the serial engine's, where each cross event fires exactly once.
	crossFired uint64
}

// NewShardSet builds n empty shards with residue-class sequence
// numbering. n must be at least 1.
func NewShardSet(n int) *ShardSet {
	if n < 1 {
		panic(fmt.Sprintf("event: NewShardSet(%d)", n))
	}
	s := &ShardSet{qs: make([]*Queue, n)}
	for j := range s.qs {
		s.qs[j] = &Queue{seq: uint64(j), stride: uint64(n)}
	}
	return s
}

// Shards returns the number of member queues.
func (s *ShardSet) Shards() int { return len(s.qs) }

// Shard returns the j-th member queue.
func (s *ShardSet) Shard(j int) *Queue { return s.qs[j] }

// Now returns the common clock of the set. Outside RunUntil/RunCross
// every shard sits at the same instant (the last window edge).
func (s *ShardSet) Now() config.Time { return s.qs[0].now }

// Len returns the total number of pending events across all shards.
func (s *ShardSet) Len() int {
	n := 0
	for _, q := range s.qs {
		n += q.Len()
	}
	return n
}

// Fired returns the total number of events executed, counting each
// cross-shard callback once (as the serial engine would).
func (s *ShardSet) Fired() uint64 {
	n := s.crossFired
	for _, q := range s.qs {
		n += q.fired
	}
	return n
}

// ScheduledTotal returns the total number of events ever scheduled.
func (s *ShardSet) ScheduledTotal() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.scheduled
	}
	return n
}

// Coalesced returns the total number of trampoline events elided
// through the deferred-schedule plane across all shards.
func (s *ShardSet) Coalesced() uint64 {
	var n uint64
	for _, q := range s.qs {
		n += q.coalesced
	}
	return n
}

// NextAt returns the earliest pending fire time across all shards.
func (s *ShardSet) NextAt() (config.Time, bool) {
	var at config.Time
	ok := false
	for _, q := range s.qs {
		if t, qok := q.NextAt(); qok && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// RunUntil advances every shard to the deadline, concurrently when the
// set has more than one shard. The caller guarantees the window
// (Now, deadline] is free of cross-shard interaction.
func (s *ShardSet) RunUntil(deadline config.Time) {
	if len(s.qs) == 1 {
		s.qs[0].RunUntil(deadline)
		return
	}
	var wg sync.WaitGroup
	for _, q := range s.qs[1:] {
		wg.Add(1)
		go func(q *Queue) {
			defer wg.Done()
			q.RunUntil(deadline)
		}(q)
	}
	s.qs[0].RunUntil(deadline)
	wg.Wait()
}

// ReserveTickets reserves one ordering ticket on every shard, in shard
// order, and returns them. A cross-shard event scheduled at a window
// edge takes a ticket per shard so that each shard can later be drained
// exactly to the event's position; the serial engine's single ticket
// and the per-shard tickets occupy the same relative position in every
// shard's local order, which is all the simulator ever observes.
func (s *ShardSet) ReserveTickets() []Seq {
	ts := make([]Seq, len(s.qs))
	for j, q := range s.qs {
		ts[j] = q.ReserveSeq()
	}
	return ts
}

// RunCross advances every shard exactly to the position (at, ticket)
// of a cross-shard event — concurrently, since the segment up to the
// position is still inside the conservative window — then executes fn
// serially with every shard's clock at the event's instant and its
// firing cursor at the ticket, so same-instant ordering checks inside
// fn resolve exactly as they would around the serial engine's single
// event.
func (s *ShardSet) RunCross(at config.Time, tickets []Seq, fn func(now config.Time)) {
	if len(tickets) != len(s.qs) {
		panic(fmt.Sprintf("event: RunCross with %d tickets for %d shards", len(tickets), len(s.qs)))
	}
	if len(s.qs) > 1 {
		var wg sync.WaitGroup
		for j, q := range s.qs[1:] {
			wg.Add(1)
			go func(q *Queue, t Seq) {
				defer wg.Done()
				q.RunUntilExclusive(at, t)
			}(q, tickets[j+1])
		}
		s.qs[0].RunUntilExclusive(at, tickets[0])
		wg.Wait()
	} else {
		s.qs[0].RunUntilExclusive(at, tickets[0])
	}
	for j, q := range s.qs {
		q.firing = uint64(tickets[j])
	}
	// Account the cross event exactly as the serial engine's single
	// scheduled-and-fired event would have been.
	s.qs[0].scheduled++
	s.crossFired++
	fn(at)
}

// Save captures the whole set as a single canonical Queue state: the
// image of the serial queue that holds every pending event of every
// shard. Entries are merged in (time, seq) order over a dense node
// arena with an empty free list, so loading the state into one serial
// queue (or re-partitioning it across any shard count) reproduces the
// same future behaviour.
func (s *ShardSet) Save(codec Codec) (*State, error) {
	st := &State{Now: s.Now()}
	for _, q := range s.qs {
		if q.seq > st.Seq {
			st.Seq = q.seq
		}
		if q.firing > st.Firing {
			st.Firing = q.firing
		}
		st.Fired += q.fired
		st.Scheduled += q.scheduled
		st.Coalesced += q.coalesced
	}
	st.Fired += s.crossFired
	for _, q := range s.qs {
		for _, es := range [][]entry{q.near, q.heap} {
			for _, e := range es {
				n := &q.nodes[e.idx]
				kind, owner, err := codec.Encode(n.fn, n.bfn, n.env)
				if err != nil {
					return nil, fmt.Errorf("event: save shard entry: %w", err)
				}
				st.Heap = append(st.Heap, EntryState{At: e.at, Seq: e.seq})
				st.Nodes = append(st.Nodes, NodeState{
					Gen: 1, Pos: 0, Kind: kind, Owner: owner, A: n.a, B: n.b,
				})
			}
		}
		for i := range q.defers {
			d := &q.defers[i]
			kind, owner, err := codec.Encode(nil, d.bfn, d.env)
			if err != nil {
				return nil, fmt.Errorf("event: save shard deferred: %w", err)
			}
			st.Defers = append(st.Defers, DeferredState{
				ActivateAt: d.activateAt, Seq: d.seq, FireAt: d.fireAt,
				Kind: kind, Owner: owner, A: d.a, B: d.b,
			})
		}
	}
	// Nodes were appended in step with their heap entries; sort the
	// entries into canonical (time, seq) order and renumber the node
	// references to match.
	order := make([]int, len(st.Heap))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := st.Heap[order[a]], st.Heap[order[b]]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		return ea.Seq < eb.Seq
	})
	heap := make([]EntryState, len(order))
	nodes := make([]NodeState, len(order))
	for i, o := range order {
		heap[i] = st.Heap[o]
		heap[i].Idx = int32(i)
		nodes[i] = st.Nodes[o]
	}
	st.Heap, st.Nodes = heap, nodes
	sort.Slice(st.Defers, func(a, b int) bool {
		if st.Defers[a].ActivateAt != st.Defers[b].ActivateAt {
			return st.Defers[a].ActivateAt < st.Defers[b].ActivateAt
		}
		return st.Defers[a].Seq < st.Defers[b].Seq
	})
	return st, nil
}

// ShardOf assigns a saved pending event to a shard. It receives the
// encoded payload of the event; an error rejects the whole load (the
// state contains an event the partition cannot place).
type ShardOf func(kind string, owner, a, b int32) (int, error)

// Load partitions a canonical serial queue state across the set's
// shards: every pending event and deferred schedule goes to the shard
// shardOf names, keeping its (time, seq) key, so the merged order — and
// therefore future behaviour — is exactly the saved one. Totals are
// carried on shard 0; sequence counters restart above the saved
// counter in each shard's residue class.
func (s *ShardSet) Load(st *State, codec Codec, shardOf ShardOf) error {
	n := len(s.qs)
	parts := make([]*State, n)
	for j := range parts {
		parts[j] = &State{Now: st.Now, Firing: st.Firing}
	}
	parts[0].Fired = st.Fired
	parts[0].Scheduled = st.Scheduled
	parts[0].Coalesced = st.Coalesced
	for _, e := range st.Heap {
		if e.Idx < 0 || int(e.Idx) >= len(st.Nodes) {
			return fmt.Errorf("event: shard load: heap idx %d out of range", e.Idx)
		}
		ns := st.Nodes[e.Idx]
		if ns.Pos < 0 {
			return fmt.Errorf("event: shard load: heap references free node %d", e.Idx)
		}
		j, err := shardOf(ns.Kind, ns.Owner, ns.A, ns.B)
		if err != nil {
			return fmt.Errorf("event: shard load: %w", err)
		}
		if j < 0 || j >= n {
			return fmt.Errorf("event: shard load: kind %q assigned to shard %d of %d", ns.Kind, j, n)
		}
		p := parts[j]
		p.Heap = append(p.Heap, EntryState{At: e.At, Seq: e.Seq, Idx: int32(len(p.Nodes))})
		p.Nodes = append(p.Nodes, NodeState{Gen: 1, Pos: 0, Kind: ns.Kind, Owner: ns.Owner, A: ns.A, B: ns.B})
	}
	for _, d := range st.Defers {
		j, err := shardOf(d.Kind, d.Owner, d.A, d.B)
		if err != nil {
			return fmt.Errorf("event: shard load deferred: %w", err)
		}
		if j < 0 || j >= n {
			return fmt.Errorf("event: shard load: deferred kind %q assigned to shard %d of %d", d.Kind, j, n)
		}
		parts[j].Defers = append(parts[j].Defers, d)
	}
	for j, p := range parts {
		// Per-shard entries in (time, seq) order: the subsequence of the
		// canonical order owned by this shard.
		sort.Slice(p.Heap, func(a, b int) bool {
			if p.Heap[a].At != p.Heap[b].At {
				return p.Heap[a].At < p.Heap[b].At
			}
			return p.Heap[a].Seq < p.Heap[b].Seq
		})
		nodes := make([]NodeState, len(p.Heap))
		for i := range p.Heap {
			nodes[i] = p.Nodes[p.Heap[i].Idx]
			p.Heap[i].Idx = int32(i)
		}
		p.Nodes = nodes
		if err := s.qs[j].Load(p, codec); err != nil {
			return fmt.Errorf("event: shard %d load: %w", j, err)
		}
		// Resume allocation above the saved counter, in this shard's
		// residue class of the set's stride.
		s.qs[j].seq = st.Seq + uint64(j)
		s.qs[j].stride = uint64(n)
	}
	s.crossFired = 0
	return nil
}
