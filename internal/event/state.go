package event

import (
	"cmp"
	"fmt"
	"slices"

	"memscale/internal/config"
)

// This file is the checkpoint plane of the event engine. The image
// holds what decides the engine's future: the clock, the counters, the
// pending entries and the deferred-schedule plane, each key written in
// ascending (time, seq) order, plus the size of the node arena and the
// payload of every node a pending entry references. Fire order is the
// total (time, seq) order whatever container or node holds a key, so
// Load rebuilds the containers and the free list from the entries
// alone; a restored queue fires, numbers its sequence and grows its
// pool exactly as the original would have. A sorted array is also a
// valid 4-ary min-heap image, the layout earlier versions wrote, and
// Load accepts entries in any order. Earlier versions also wrote each
// node's generation and position and the free list (keys gen, pos and
// free); JSON decoding ignores them, so their images still load.
//
// Callbacks cannot be serialized directly (they are function values
// bound to live simulator components), so Save translates each pending
// callback through a Codec into a (kind, owner) payload, and Load asks
// the same Codec — built over the freshly reconstructed components —
// to rebind them. Only pre-bound callbacks checkpoint: Save fails when
// a plain Handler is pending.

// Codec translates between live pre-bound callback bindings and
// serializable (kind, owner) payloads. Kind names the registered
// callback family (e.g. a pre-bound controller method); owner
// identifies which component or in-flight object the binding refers
// to. The inline integer arguments a/b are captured separately and
// pass through unchanged.
type Codec interface {
	// Encode maps a pending event's callback binding to a payload.
	Encode(fn Bound, env any) (kind string, owner int32, err error)

	// Decode rebuilds the live callback binding for a payload produced
	// by Encode.
	Decode(kind string, owner int32) (fn Bound, env any, err error)
}

// NodeState is the serializable image of one pooled event node: the
// encoded callback payload and inline arguments of a pending node, and
// the zero value for a free slot.
type NodeState struct {
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

// State is the complete serializable image of a Queue. Nodes has one
// element per slot of the arena; Heap and Defers keep the field names
// of the heap images earlier versions wrote.
type State struct {
	Now       config.Time     `json:"now"`
	Seq       uint64          `json:"seq"`
	Fired     uint64          `json:"fired"`
	Scheduled uint64          `json:"scheduled"`
	Coalesced uint64          `json:"coalesced"`
	Firing    uint64          `json:"firing"`
	Nodes     []NodeState     `json:"nodes"`
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
	}
	for _, e := range q.entries() {
		idx := e.idx()
		n := &q.nodes[idx]
		if n.bfn == nil {
			return nil, fmt.Errorf("event: save node %d: a plain handler cannot be checkpointed", idx)
		}
		kind, owner, err := codec.Encode(n.bfn, n.env)
		if err != nil {
			return nil, fmt.Errorf("event: save node %d: %w", idx, err)
		}
		st.Nodes[idx] = NodeState{Kind: kind, Owner: owner, A: n.a, B: n.b}
		st.Heap = append(st.Heap, EntryState{At: e.at, Seq: e.seq(), Idx: idx})
	}
	for i := len(q.defers) - 1; i >= 0; i-- {
		d := &q.defers[i]
		kind, owner, err := codec.Encode(d.bfn, d.env)
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

// Pending counts the image's pending events of one callback kind,
// deferred schedules included. An entry naming a node out of range
// counts for nothing; Load rejects it.
func (st *State) Pending(kind string) int {
	n := 0
	for _, e := range st.Heap {
		if e.Idx >= 0 && int(e.Idx) < len(st.Nodes) && st.Nodes[e.Idx].Kind == kind {
			n++
		}
	}
	for _, d := range st.Defers {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

// Load replaces the queue's entire state with st, rebinding every
// pending callback through codec. A corrupted or impossible state
// yields an error, never a panic or a clock running backwards in later
// queue operations: every entry must name a distinct node in range, no
// unreferenced node may carry a payload, no entry may fire and no
// deferral activate before Now, and no key may hold a sequence number
// the queue has not yet handed out. Entries and deferred schedules may
// come in any order.
func (q *Queue) Load(st *State, codec Codec) error {
	n := len(st.Nodes)
	if n > maxIdx+1 {
		return fmt.Errorf("event: load: %d nodes overflow the key's index field (max %d)", n, maxIdx+1)
	}
	if st.Seq > maxSeq {
		return fmt.Errorf("event: load: seq %d overflows the key (max %d)", st.Seq, uint64(maxSeq))
	}
	nodes := make([]node, n)
	pending := make([]bool, n)
	for i, e := range st.Heap {
		if e.Idx < 0 || int(e.Idx) >= n {
			return fmt.Errorf("event: load: heap[%d].idx=%d out of range [0,%d)", i, e.Idx, n)
		}
		if pending[e.Idx] {
			return fmt.Errorf("event: load: heap[%d] names node %d a second time", i, e.Idx)
		}
		if e.At < st.Now {
			return fmt.Errorf("event: load: heap[%d] fires at %v before now %v", i, e.At, st.Now)
		}
		if e.Seq > st.Seq {
			return fmt.Errorf("event: load: heap[%d].seq=%d is past the queue's seq %d", i, e.Seq, st.Seq)
		}
		ns := st.Nodes[e.Idx]
		bfn, env, err := codec.Decode(ns.Kind, ns.Owner)
		if err != nil {
			return fmt.Errorf("event: load node %d: %w", e.Idx, err)
		}
		nodes[e.Idx] = node{bfn: bfn, env: env, a: ns.A, b: ns.B}
		pending[e.Idx] = true
	}
	// The lowest free slot is reused first.
	var free []int32
	for i := n - 1; i >= 0; i-- {
		if pending[i] {
			continue
		}
		if st.Nodes[i] != (NodeState{}) {
			return fmt.Errorf("event: load: node %d carries a payload but no entry references it", i)
		}
		free = append(free, int32(i))
	}
	defers := make([]deferred, 0, len(st.Defers))
	for i, ds := range st.Defers {
		if ds.ActivateAt < st.Now {
			return fmt.Errorf("event: load: deferred %d activates at %v before now %v", i, ds.ActivateAt, st.Now)
		}
		if ds.FireAt < ds.ActivateAt {
			return fmt.Errorf("event: load: deferred %d fires at %v before activation %v", i, ds.FireAt, ds.ActivateAt)
		}
		if ds.Seq > st.Seq {
			return fmt.Errorf("event: load: deferred %d seq %d is past the queue's seq %d", i, ds.Seq, st.Seq)
		}
		bfn, env, err := codec.Decode(ds.Kind, ds.Owner)
		if err != nil {
			return fmt.Errorf("event: load deferred %d: %w", i, err)
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
	q.free = free
	q.near, q.heap = q.near[:0], q.heap[:0]
	for _, e := range st.Heap {
		q.push(makeEntry(e.At, e.Seq, e.Idx))
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
	slices.SortFunc(es, func(a, b entry) int { return cmpKey(a.at, a.key, b.at, b.key) })
	return es
}

// cmpKey orders two (time, seq) keys.
func cmpKey(at1 config.Time, seq1 uint64, at2 config.Time, seq2 uint64) int {
	if c := cmp.Compare(at1, at2); c != 0 {
		return c
	}
	return cmp.Compare(seq1, seq2)
}
