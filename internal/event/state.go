package event

import (
	"cmp"
	"fmt"
	"slices"

	"memscale/internal/config"
)

// This file is the checkpoint plane of the event engine. The queue's
// pooled arena, free list, pending entries, and deferred-schedule plane
// are captured — the arena verbatim, including free slots and
// generation counters — so a restored queue reproduces not just the
// pending events but the engine's future behaviour bit-identically:
// slot allocation order, sequence numbering, and same-instant FIFO
// order all continue exactly as they would have in the original run.
// Pending entries and deferred schedules are written in ascending
// (time, seq) order. Fire order is the total (time, seq) order whatever
// container holds the keys, so their layout carries no behaviour; a
// sorted array is also a valid 4-ary min-heap image, the layout earlier
// versions of the engine wrote and read back verbatim.
//
// Callbacks cannot be serialized directly (they are function values
// bound to live simulator components), so Save translates each pending
// callback through a Codec into a (kind, owner) payload, and Load asks
// the same Codec — built over the freshly reconstructed components —
// to rebind them.

// Codec translates between live callback bindings and serializable
// (kind, owner) payloads. Kind names the registered callback family
// (e.g. a pre-bound controller method); owner identifies which
// component or in-flight object the binding refers to. The inline
// integer arguments a/b are captured separately and pass through
// unchanged.
type Codec interface {
	// Encode maps a pending event's callback binding to a payload.
	// Exactly one of fn/bfn is non-nil, matching how the event was
	// scheduled.
	Encode(fn Handler, bfn Bound, env any) (kind string, owner int32, err error)

	// Decode rebuilds the live callback binding for a payload produced
	// by Encode.
	Decode(kind string, owner int32) (fn Handler, bfn Bound, env any, err error)
}

// NodeState is the serializable image of one pooled event node. Free
// slots carry only their generation counter (Pos < 0); pending slots
// add the encoded callback payload and inline arguments.
type NodeState struct {
	Gen   uint32 `json:"gen"`
	Pos   int32  `json:"pos"`
	Kind  string `json:"kind,omitempty"`
	Owner int32  `json:"owner,omitempty"`
	A     int32  `json:"a,omitempty"`
	B     int32  `json:"b,omitempty"`
}

// EntryState is one pending event's (time, seq) key and the node
// carrying its callback. Save writes entries in ascending key order;
// Load accepts them in any order.
type EntryState struct {
	At  config.Time `json:"at"`
	Seq uint64      `json:"seq"`
	Idx int32       `json:"idx"`
}

// DeferredState is one lazily materialized schedule from the deferred
// plane.
type DeferredState struct {
	ActivateAt config.Time `json:"activate_at"`
	Seq        uint64      `json:"seq"`
	FireAt     config.Time `json:"fire_at"`
	Kind       string      `json:"kind"`
	Owner      int32       `json:"owner"`
	A          int32       `json:"a,omitempty"`
	B          int32       `json:"b,omitempty"`
}

// State is the complete serializable image of a Queue. Heap and Defers
// keep the field names of the heap images earlier versions wrote.
type State struct {
	Now       config.Time     `json:"now"`
	Seq       uint64          `json:"seq"`
	Fired     uint64          `json:"fired"`
	Scheduled uint64          `json:"scheduled"`
	Coalesced uint64          `json:"coalesced"`
	Firing    uint64          `json:"firing"`
	Nodes     []NodeState     `json:"nodes"`
	Free      []int32         `json:"free"`
	Heap      []EntryState    `json:"heap"`
	Defers    []DeferredState `json:"defers,omitempty"`
}

// Save captures the queue's full state, translating every pending
// callback through codec. The queue is left untouched.
func (q *Queue) Save(codec Codec) (*State, error) {
	st := &State{
		Now:       q.now,
		Seq:       q.seq,
		Fired:     q.fired,
		Scheduled: q.scheduled,
		Coalesced: q.coalesced,
		Firing:    q.firing,
		Nodes:     make([]NodeState, len(q.nodes)),
		Free:      append([]int32(nil), q.free...),
	}
	for i := range q.nodes {
		n := &q.nodes[i]
		ns := NodeState{Gen: n.gen, Pos: n.pos}
		if n.pos >= 0 {
			kind, owner, err := codec.Encode(n.fn, n.bfn, n.env)
			if err != nil {
				return nil, fmt.Errorf("event: save node %d: %w", i, err)
			}
			ns.Kind, ns.Owner, ns.A, ns.B = kind, owner, n.a, n.b
		}
		st.Nodes[i] = ns
	}
	for _, e := range q.entries() {
		st.Heap = append(st.Heap, EntryState{At: e.at, Seq: e.seq, Idx: e.idx})
	}
	for i := len(q.defers) - 1; i >= 0; i-- {
		d := &q.defers[i]
		kind, owner, err := codec.Encode(nil, d.bfn, d.env)
		if err != nil {
			return nil, fmt.Errorf("event: save deferred %d: %w", i, err)
		}
		st.Defers = append(st.Defers, DeferredState{
			ActivateAt: d.activateAt, Seq: d.seq, FireAt: d.fireAt,
			Kind: kind, Owner: owner, A: d.a, B: d.b,
		})
	}
	return st, nil
}

// Load replaces the queue's entire state with st, rebinding every
// pending callback through codec. Structural invariants are validated
// so a corrupted state yields an error, never a panic in later queue
// operations: indices must be in range, free slots must not be
// referenced by an entry, and every pending node must appear exactly
// once among the entries. Entries and deferred schedules may come in
// any order.
func (q *Queue) Load(st *State, codec Codec) error {
	n := len(st.Nodes)
	nodes := make([]node, n)
	for i, ns := range st.Nodes {
		nd := node{gen: ns.Gen, pos: ns.Pos}
		if ns.Pos >= 0 {
			fn, bfn, env, err := codec.Decode(ns.Kind, ns.Owner)
			if err != nil {
				return fmt.Errorf("event: load node %d: %w", i, err)
			}
			nd.fn, nd.bfn, nd.env, nd.a, nd.b = fn, bfn, env, ns.A, ns.B
		}
		nodes[i] = nd
	}
	for i, idx := range st.Free {
		if idx < 0 || int(idx) >= n {
			return fmt.Errorf("event: load: free[%d]=%d out of range [0,%d)", i, idx, n)
		}
		if nodes[idx].pos >= 0 {
			return fmt.Errorf("event: load: free[%d]=%d names a pending node", i, idx)
		}
	}
	refs := make([]int, n)
	for i, e := range st.Heap {
		if e.Idx < 0 || int(e.Idx) >= n {
			return fmt.Errorf("event: load: heap[%d].idx=%d out of range [0,%d)", i, e.Idx, n)
		}
		if nodes[e.Idx].pos < 0 {
			return fmt.Errorf("event: load: heap[%d] references free node %d", i, e.Idx)
		}
		if e.At < st.Now {
			return fmt.Errorf("event: load: heap[%d] fires at %v before now %v", i, e.At, st.Now)
		}
		refs[e.Idx]++
	}
	for i := range nodes {
		if nodes[i].pos >= 0 && refs[i] != 1 {
			return fmt.Errorf("event: load: pending node %d appears %d times in heap", i, refs[i])
		}
	}
	defers := make([]deferred, 0, len(st.Defers))
	for i, ds := range st.Defers {
		if ds.FireAt < ds.ActivateAt {
			return fmt.Errorf("event: load: deferred %d fires at %v before activation %v", i, ds.FireAt, ds.ActivateAt)
		}
		_, bfn, env, err := codec.Decode(ds.Kind, ds.Owner)
		if err != nil {
			return fmt.Errorf("event: load deferred %d: %w", i, err)
		}
		if bfn == nil {
			return fmt.Errorf("event: load deferred %d: kind %q decodes to a plain handler", i, ds.Kind)
		}
		defers = append(defers, deferred{
			activateAt: ds.ActivateAt, seq: ds.Seq, fireAt: ds.FireAt,
			bfn: bfn, env: env, a: ds.A, b: ds.B,
		})
	}

	// The defers array is kept latest first.
	slices.SortFunc(defers, func(a, b deferred) int {
		return cmpKey(b.activateAt, b.seq, a.activateAt, a.seq)
	})

	q.nodes = nodes
	q.free = append(q.free[:0], st.Free...)
	q.near, q.heap = q.near[:0], q.heap[:0]
	for _, e := range st.Heap {
		q.push(entry{at: e.At, seq: e.Seq, idx: e.Idx})
	}
	q.defers = defers
	q.now = st.Now
	q.seq = st.Seq
	q.fired = st.Fired
	q.scheduled = st.Scheduled
	q.coalesced = st.Coalesced
	q.firing = st.Firing
	return nil
}

// entries returns a copy of the pending entries in ascending
// (time, seq) order.
func (q *Queue) entries() []entry {
	es := make([]entry, 0, len(q.near)+len(q.heap))
	es = append(append(es, q.near...), q.heap...)
	slices.SortFunc(es, func(a, b entry) int { return cmpKey(a.at, a.seq, b.at, b.seq) })
	return es
}

// cmpKey orders two (time, seq) keys.
func cmpKey(at1 config.Time, seq1 uint64, at2 config.Time, seq2 uint64) int {
	if c := cmp.Compare(at1, at2); c != 0 {
		return c
	}
	return cmp.Compare(seq1, seq2)
}
