// Package event implements the discrete-event simulation engine that
// drives the MemScale memory-system simulator.
//
// The engine is a deterministic single-threaded priority queue of
// timestamped callbacks. Events scheduled for the same instant fire in
// the order they were scheduled, which keeps every simulation run
// exactly reproducible.
//
// The queue is built for a zero-allocation steady state: event nodes
// live in a pooled arena and are recycled through a free list when
// they fire, and the ScheduleBound form lets callers attach a
// pre-bound callback plus inline arguments so that scheduling never
// captures a closure. Scheduling returns nothing: a pending event is
// never addressed again, so fire order is the total (time, seq) order
// of the pending keys and node indices never break a tie.
//
// Pending keys are 16 bytes, the fire time and the schedule sequence
// packed with the node index, kept in a short array sorted latest
// first, so the next event is popped from its tail in O(1) and a new
// near-future event is inserted a few slots from the tail. The array
// is bounded; when it is full the later of the new key and its head
// spills into a flat 4-ary min-heap, and every pop compares the array's
// tail with the heap root. The simulator's queue peaks at about 40
// events, 16 of them refresh timers due microseconds ahead while the
// churn is due within nanoseconds, so the array serves more than 99.8%
// of pops on the benchmark workloads (DESIGN §4f), and the heap keeps a
// queue with thousands of pending events at O(log n).
package event

import (
	"fmt"

	"memscale/internal/config"
)

// Handler is a callback invoked when an event fires.
type Handler func(now config.Time)

// Bound is the pre-bound callback form: the environment pointer and two
// integer arguments are stored inline in the event node, so scheduling
// a Bound callback allocates nothing in steady state. Typical use binds
// a method value once at construction time and passes per-event state
// through env/a/b.
type Bound func(now config.Time, env any, a, b int32)

// entry is one pending key, 16 bytes: the fire time, and a word that
// packs the schedule sequence (the same-instant FIFO tie-break) above
// the index of the pooled node carrying the callback. Sequence numbers
// are unique, so comparing the packed words orders by sequence alone.
type entry struct {
	at  config.Time
	key uint64 // seq<<idxBits | idx
}

// idxBits is the width of the node index in an entry key; the sequence
// takes the remaining 40 bits. A queue holds at most 1<<idxBits node
// slots (16.7M pending events) and hands out at most maxSeq sequence
// numbers over its lifetime (1.1e12; the counter advances about six
// times per simulated memory request, see sim.MaxEpochs).
const (
	idxBits = 24
	maxIdx  = 1<<idxBits - 1
	maxSeq  = 1<<(64-idxBits) - 1
)

// MaxTickets is the number of sequence numbers (one per schedule or
// reserved ticket) a queue can hand out over its lifetime, checkpoint
// resumes included; the next one panics.
const MaxTickets = maxSeq

// makeEntry packs a pending key. It panics when seq or idx overflows
// its field: a wrapped key would silently reorder events.
func makeEntry(at config.Time, seq uint64, idx int32) entry {
	if seq > maxSeq || uint32(idx) > maxIdx {
		panic(keyOverflow{seq, idx})
	}
	return entry{at: at, key: seq<<idxBits | uint64(idx)}
}

// keyOverflow is makeEntry's panic value; it formats only when printed,
// which keeps makeEntry cheap enough to inline.
type keyOverflow struct {
	seq uint64
	idx int32
}

func (k keyOverflow) Error() string {
	return fmt.Sprintf("event: key overflow: seq %d (max %d), node index %d (max %d)",
		k.seq, uint64(maxSeq), k.idx, maxIdx)
}

func (e entry) seq() uint64 { return e.key >> idxBits }
func (e entry) idx() int32  { return int32(e.key & maxIdx) }

func entryLess(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// node is one pooled event: the callback a pending entry names by
// index. Exactly one of fn/bfn is set while the node is pending.
type node struct {
	fn   Handler
	bfn  Bound
	env  any
	a, b int32
}

// deferred is one lazily materialized schedule (see ScheduleVia): at
// the activation point — among same-instant events, exactly where the
// ticket was positioned — the target callback is pushed onto the heap
// with a fresh sequence number, as if a trampoline event had fired
// there and scheduled it.
type deferred struct {
	activateAt config.Time
	seq        uint64
	fireAt     config.Time
	bfn        Bound
	env        any
	a, b       int32
}

func deferredBefore(d *deferred, e entry) bool {
	if d.activateAt != e.at {
		return d.activateAt < e.at
	}
	return d.seq < e.seq()
}

// nearCap bounds the sorted near array. The simulator's queue peaks at
// about 40 pending events (16 refresh timers plus the churning
// near-future events); at 32, more than 99.8% of pops on the paper
// machine's workloads are served by the array (DESIGN §4f), while the
// worst-case insertion shift stays short.
const nearCap = 32

// Queue is the event priority queue and simulation clock.
// The zero value is ready to use.
type Queue struct {
	// near holds up to nearCap pending entries sorted latest first, so
	// the earliest is its tail; heap is the 4-ary min-heap that takes
	// the spill. No ordering holds between the two: the next event is
	// the earlier of near's tail and the heap root.
	near  []entry
	heap  []entry
	nodes []node
	free  []int32
	now   config.Time
	seq   uint64

	// defers holds the lazily materialized schedules, keyed
	// (activateAt, seq) and sorted latest first like near. Entries
	// migrate to the pending entries when processing reaches their
	// activation position; most activate within nanoseconds, so the
	// array stays short and inserts stop near the tail.
	defers []deferred

	fired     uint64
	scheduled uint64
	coalesced uint64
	firing    uint64 // seq of the event currently (or most recently) firing
}

// bump advances the sequence counter and returns the new value.
func (q *Queue) bump() uint64 {
	q.seq++
	return q.seq
}

// Now returns the current simulated time.
func (q *Queue) Now() config.Time { return q.now }

// Len returns the number of pending events, counting deferred
// schedules that have not yet materialized.
func (q *Queue) Len() int { return len(q.near) + len(q.heap) + len(q.defers) }

// Fired returns the number of events executed so far.
func (q *Queue) Fired() uint64 { return q.fired }

// ScheduledTotal returns the number of events ever scheduled.
func (q *Queue) ScheduledTotal() uint64 { return q.scheduled }

// Coalesced returns the number of trampoline events elided through
// ScheduleVia — fires the eager formulation would have executed that
// the deferred-schedule plane absorbed.
func (q *Queue) Coalesced() uint64 { return q.coalesced }

// PoolSize returns the number of node slots ever allocated — the
// high-water mark of concurrently pending events.
func (q *Queue) PoolSize() int { return len(q.nodes) }

// alloc takes a node slot from the free list, growing the arena only
// when no recycled slot is available.
func (q *Queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx
	}
	q.nodes = append(q.nodes, node{})
	return int32(len(q.nodes) - 1)
}

// release recycles a node slot, dropping its callback references so the
// pool retains nothing.
func (q *Queue) release(idx int32) {
	q.nodes[idx] = node{}
	q.free = append(q.free, idx)
}

// add queues a real event with sequence number seq.
func (q *Queue) add(at config.Time, seq uint64, fn Handler, bfn Bound, env any, a, b int32) {
	if at < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", at, q.now))
	}
	q.scheduled++
	idx := q.alloc()
	q.nodes[idx] = node{fn: fn, bfn: bfn, env: env, a: a, b: b}
	q.push(makeEntry(at, seq, idx))
}

// Schedule queues fn to run at time at. Scheduling in the past (before
// Now) panics: that is always a simulator bug, and silently clamping
// would corrupt causality.
func (q *Queue) Schedule(at config.Time, fn Handler) {
	if fn == nil {
		panic("event: nil handler")
	}
	q.add(at, q.bump(), fn, nil, nil, 0, 0)
}

// ScheduleBound queues a pre-bound callback: fn(at, env, a, b) runs at
// time at. env and the integer arguments are stored inline in the
// pooled node, so the call allocates nothing once the pool is warm.
func (q *Queue) ScheduleBound(at config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	q.add(at, q.bump(), nil, fn, env, a, b)
}

// Seq is a same-instant ordering ticket. ReserveSeq allocates the next
// ticket without scheduling anything; ScheduleBoundSeq later turns the
// ticket into a real event that fires among same-instant events exactly
// where it would have fired had it been scheduled when the ticket was
// taken. This lets a caller elide an almost-always-no-op event while
// preserving the engine's deterministic same-instant FIFO order in the
// rare case the event turns out to be needed.
type Seq uint64

// ReserveSeq consumes and returns the next schedule-order ticket.
func (q *Queue) ReserveSeq() Seq {
	return Seq(q.bump())
}

// FiringSeq returns the sequence number of the event currently (or
// most recently) firing. A holder of a reserved ticket compares
// against it to learn whether the ticket's same-instant position has
// already been passed.
func (q *Queue) FiringSeq() uint64 { return q.firing }

// ScheduleBoundSeq schedules a pre-bound callback at time at, ordered
// among same-instant events by the reserved ticket rather than by the
// current schedule counter. Scheduling at the current instant is
// allowed only when the ticket's position has not yet been passed
// (seq greater than FiringSeq); the caller owns that guarantee — a
// ticket whose position already fired would be silently late.
func (q *Queue) ScheduleBoundSeq(at config.Time, seq Seq, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	q.add(at, uint64(seq), nil, fn, env, a, b)
}

// ScheduleVia is the deferred-schedule fast path: it is semantically
// identical to scheduling, at activateAt, a trampoline event whose
// only action is to schedule fn at fireAt — but the trampoline never
// enters the pending queue and never fires. The call consumes one
// ordering ticket (the trampoline's schedule position); when queue
// processing reaches the activation position — after every event that
// precedes (activateAt, ticket) and before every event that follows
// it — the target is pushed with a fresh sequence number, exactly the
// number the eager trampoline's fire would have assigned. Same-instant
// FIFO order is therefore preserved bit-exactly while the trampoline's
// heap traffic, node, and callback dispatch disappear.
//
// The activation must not lie in the past. A deferred schedule can be
// withdrawn with CancelDeferred until it materializes.
func (q *Queue) ScheduleVia(activateAt, fireAt config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if activateAt < q.now {
		panic(fmt.Sprintf("event: deferred activation at %v before now %v", activateAt, q.now))
	}
	if fireAt < activateAt {
		panic(fmt.Sprintf("event: deferred fire at %v before activation %v", fireAt, activateAt))
	}
	seq := q.bump()
	q.coalesced++
	q.deferPush(deferred{activateAt: activateAt, seq: seq, fireAt: fireAt, bfn: fn, env: env, a: a, b: b})
}

// ScheduleViaSeq is ScheduleVia with the activation position supplied
// by a previously reserved ticket instead of a fresh one: the deferred
// schedule activates exactly where an event scheduled with that ticket
// would have fired, and the target then receives the next sequence
// number at that point in processing order — the number the elided
// event's own schedule call would have consumed. No ticket is taken at
// call time; the caller already reserved it.
func (q *Queue) ScheduleViaSeq(activateAt config.Time, seq Seq, fireAt config.Time, fn Bound, env any, a, b int32) {
	if fn == nil {
		panic("event: nil handler")
	}
	if activateAt < q.now {
		panic(fmt.Sprintf("event: deferred activation at %v before now %v", activateAt, q.now))
	}
	if fireAt < activateAt {
		panic(fmt.Sprintf("event: deferred fire at %v before activation %v", fireAt, activateAt))
	}
	q.coalesced++
	q.deferPush(deferred{activateAt: activateAt, seq: uint64(seq), fireAt: fireAt, bfn: fn, env: env, a: a, b: b})
}

// CancelDeferred removes the deferred schedule holding the given
// ticket before it materializes. It reports whether one was found; a
// ticket whose activation position has already been passed is gone
// from the plane and yields false.
func (q *Queue) CancelDeferred(seq Seq) bool {
	for i := range q.defers {
		if q.defers[i].seq == uint64(seq) {
			d := q.defers
			copy(d[i:], d[i+1:])
			d[len(d)-1] = deferred{} // drop the callback/env references
			q.defers = d[:len(d)-1]
			return true
		}
	}
	return false
}

// materializeDeferred pops the earliest deferred schedule and turns it
// into a real pending event, assigning the next sequence number — the
// one its trampoline's fire would have assigned at this exact point in
// processing order.
func (q *Queue) materializeDeferred() {
	last := len(q.defers) - 1
	d := q.defers[last]
	q.defers[last] = deferred{} // drop the callback/env references
	q.defers = q.defers[:last]
	q.add(d.fireAt, q.bump(), nil, d.bfn, d.env, d.a, d.b)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain. The node is
// recycled before the callback runs, so a callback scheduling a new
// event may reuse the slot.
func (q *Queue) Step() bool {
	for {
		e, fromHeap, ok := q.peek()
		if n := len(q.defers); n > 0 && (!ok || deferredBefore(&q.defers[n-1], e)) {
			q.materializeDeferred()
			continue
		}
		if !ok {
			return false
		}
		q.fire(e, fromHeap)
		return true
	}
}

// fire removes e, the entry peek just returned, and runs its callback.
func (q *Queue) fire(e entry, fromHeap bool) {
	if fromHeap {
		q.popRoot()
	} else {
		q.near = q.near[:len(q.near)-1]
	}
	idx := e.idx()
	n := &q.nodes[idx]
	fn, bfn, env, a, b := n.fn, n.bfn, n.env, n.a, n.b
	q.release(idx)
	q.now = e.at
	q.firing = e.seq()
	q.fired++
	if bfn != nil {
		bfn(e.at, env, a, b)
	} else {
		fn(e.at)
	}
}

// RunUntil executes events in order until the next event would fire
// after the deadline (or no events remain), then advances the clock to
// exactly the deadline. Events at the deadline itself do fire. One peek
// per iteration serves the deferral check, the deadline check and the
// pop.
func (q *Queue) RunUntil(deadline config.Time) {
	if deadline < q.now {
		panic(fmt.Sprintf("event: RunUntil(%v) before now %v", deadline, q.now))
	}
	for {
		e, fromHeap, ok := q.peek()
		// A deferred schedule ahead of the next event migrates first.
		// With no fireable event left, one activating within the
		// deadline still migrates: its trampoline would have fired by
		// now, and the target it produces may itself fire before the
		// deadline. (A deferral ahead of an event due by the deadline
		// activates by the deadline too.)
		if n := len(q.defers); n > 0 {
			if d := &q.defers[n-1]; d.activateAt <= deadline && (!ok || deferredBefore(d, e)) {
				q.materializeDeferred()
				continue
			}
		}
		if !ok || e.at > deadline {
			break
		}
		q.fire(e, fromHeap)
	}
	q.now = deadline
}

// peek returns the earliest pending entry, and whether it is the heap
// root rather than near's tail.
func (q *Queue) peek() (e entry, fromHeap, ok bool) {
	n := len(q.near)
	if len(q.heap) > 0 && (n == 0 || entryLess(q.heap[0], q.near[n-1])) {
		return q.heap[0], true, true
	}
	if n > 0 {
		return q.near[n-1], false, true
	}
	return entry{}, false, false
}

// push inserts a pending entry. Into a near array with room, the entry
// walks in from the tail past the entries due before it, shifting each
// by one slot; a new event is usually due within nanoseconds, so it
// passes a few churning events and stops short of the refresh timers
// at the head. Into a full array, the later of the entry and near's
// head spills into the heap, and the entries due after the new one
// shift towards the vacated head.
func (q *Queue) push(e entry) {
	near := q.near
	n := len(near)
	if n == nearCap {
		if entryLess(near[0], e) {
			q.heapPush(e)
			return
		}
		q.heapPush(near[0])
		i := 1
		for ; i < n && entryLess(e, near[i]); i++ {
			near[i-1] = near[i]
		}
		near[i-1] = e
		return
	}
	near = append(near, e)
	i := n
	for ; i > 0 && entryLess(near[i-1], e); i-- {
		near[i] = near[i-1]
	}
	near[i] = e
	q.near = near
}

// deferPush inserts a deferred schedule into the latest-first defers
// array, walking in from the tail as push does.
func (q *Queue) deferPush(d deferred) {
	q.defers = append(q.defers, d)
	h := q.defers
	i := len(h) - 1
	for ; i > 0 && deferredLess(&h[i-1], &d); i-- {
		h[i] = h[i-1]
	}
	h[i] = d
}

func deferredLess(a, b *deferred) bool {
	if a.activateAt != b.activateAt {
		return a.activateAt < b.activateAt
	}
	return a.seq < b.seq
}

// The spill heap is 4-ary: parent of i is (i-1)/4, children are
// 4i+1..4i+4. A wider node trades deeper comparisons per level for half
// the levels and better cache behaviour on the flat entry slice.

// heapPush appends e and restores the heap property upward.
func (q *Queue) heapPush(e entry) {
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// popRoot removes the minimum heap entry.
func (q *Queue) popRoot() {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n] // entries hold no pointers; no need to zero
	if n > 0 {
		q.heap[0] = last
		q.siftDown(0)
	}
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
