// Package event implements the discrete-event simulation engine that
// drives the MemScale memory-system simulator.
//
// The engine is a deterministic single-threaded priority queue of
// timestamped callbacks. Events scheduled for the same instant fire in
// the order they were scheduled, which keeps every simulation run
// exactly reproducible.
//
// The queue is built for a zero-allocation steady state: event nodes
// live in a pooled arena and are recycled through a free list after
// they fire or are cancelled, and the ScheduleBound form lets callers
// attach a pre-bound callback plus inline arguments so that scheduling
// never captures a closure. Handles carry a generation counter, so a
// stale handle can never cancel an event that recycled its slot.
//
// Pending (time, seq) keys are kept in a short array sorted latest
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

// Handle identifies a scheduled event. It is a small value (no heap
// pointer): the index of the pooled node plus the generation the node
// had when the event was scheduled. The zero Handle is never valid.
type Handle struct {
	idx int32
	gen uint32
}

// entry is one pending key: the ordering key (time, then schedule
// sequence for same-instant FIFO) plus the index of the pooled node
// carrying the callback.
type entry struct {
	at  config.Time
	seq uint64
	idx int32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// node is one pooled event. pos records only whether the node is
// pending (>= 0) or free/fired (-1) — the exact position of its entry
// is not maintained, so shifts and sift moves are pure entry copies;
// the rare operations that need a position (Cancel, EventAt) scan the
// pending entries for the node index instead. gen increments every
// time the slot is recycled, invalidating old handles.
type node struct {
	fn   Handler
	bfn  Bound
	env  any
	a, b int32
	gen  uint32
	pos  int32
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
	return d.seq < e.seq
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

	// stride is the sequence-number increment. Zero behaves as 1 (the
	// serial queue); a shard of a ShardSet uses the shard count so the
	// member queues allocate from disjoint residue classes of one global
	// counter and their merged (time, seq) order is well defined.
	stride uint64
}

// bump advances the sequence counter by one allocation step and
// returns the new value.
func (q *Queue) bump() uint64 {
	s := q.stride
	if s == 0 {
		s = 1
	}
	q.seq += s
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

// FreeNodes returns the number of pooled slots currently on the free
// list, available for recycling.
func (q *Queue) FreeNodes() int { return len(q.free) }

// alloc takes a node slot from the free list, growing the arena only
// when no recycled slot is available.
func (q *Queue) alloc() int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx
	}
	q.nodes = append(q.nodes, node{gen: 1, pos: -1})
	return int32(len(q.nodes) - 1)
}

// release recycles a node slot: callback references are dropped so the
// pool retains nothing, and the generation bump invalidates every
// handle issued for the previous occupant.
func (q *Queue) release(idx int32) {
	n := &q.nodes[idx]
	n.fn = nil
	n.bfn = nil
	n.env = nil
	n.gen++
	n.pos = -1
	q.free = append(q.free, idx)
}

func (q *Queue) add(at config.Time, fn Handler, bfn Bound, env any, a, b int32) Handle {
	if at < q.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", at, q.now))
	}
	seq := q.bump()
	q.scheduled++
	idx := q.alloc()
	n := &q.nodes[idx]
	n.fn, n.bfn, n.env, n.a, n.b = fn, bfn, env, a, b
	n.pos = 0
	h := Handle{idx: idx, gen: n.gen}
	q.push(entry{at: at, seq: seq, idx: idx})
	return h
}

// Schedule queues fn to run at time at. Scheduling in the past (before
// Now) panics: that is always a simulator bug, and silently clamping
// would corrupt causality.
func (q *Queue) Schedule(at config.Time, fn Handler) Handle {
	if fn == nil {
		panic("event: nil handler")
	}
	return q.add(at, fn, nil, nil, 0, 0)
}

// ScheduleBound queues a pre-bound callback: fn(at, env, a, b) runs at
// time at. env and the integer arguments are stored inline in the
// pooled node, so the call allocates nothing once the pool is warm.
func (q *Queue) ScheduleBound(at config.Time, fn Bound, env any, a, b int32) Handle {
	if fn == nil {
		panic("event: nil handler")
	}
	return q.add(at, nil, fn, env, a, b)
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
func (q *Queue) ScheduleBoundSeq(at config.Time, seq Seq, fn Bound, env any, a, b int32) Handle {
	if fn == nil {
		panic("event: nil handler")
	}
	if at < q.now {
		panic(fmt.Sprintf("event: reserved-seq scheduling at %v before now %v", at, q.now))
	}
	q.scheduled++
	idx := q.alloc()
	n := &q.nodes[idx]
	n.fn, n.bfn, n.env, n.a, n.b = nil, fn, env, a, b
	n.pos = 0
	h := Handle{idx: idx, gen: n.gen}
	q.push(entry{at: at, seq: uint64(seq), idx: idx})
	return h
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
// The activation must not lie in the past. Deferred schedules cannot
// be cancelled; use a real event when cancellation is needed.
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
	seq := q.bump()
	q.scheduled++
	idx := q.alloc()
	n := &q.nodes[idx]
	n.fn, n.bfn, n.env, n.a, n.b = nil, d.bfn, d.env, d.a, d.b
	n.pos = 0
	q.push(entry{at: d.fireAt, seq: seq, idx: idx})
}

// After queues fn to run d after the current time.
func (q *Queue) After(d config.Time, fn Handler) Handle {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	return q.Schedule(q.now+d, fn)
}

// AfterBound queues a pre-bound callback d after the current time.
func (q *Queue) AfterBound(d config.Time, fn Bound, env any, a, b int32) Handle {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	return q.ScheduleBound(q.now+d, fn, env, a, b)
}

// live returns the node for h if h still names a pending event.
func (q *Queue) live(h Handle) *node {
	if h.idx < 0 || int(h.idx) >= len(q.nodes) {
		return nil
	}
	n := &q.nodes[h.idx]
	if n.gen != h.gen || n.pos < 0 {
		return nil
	}
	return n
}

// Pending reports whether the event named by h is still queued.
func (q *Queue) Pending(h Handle) bool { return q.live(h) != nil }

// EventAt returns the fire time of the pending event named by h, and
// whether h still names a pending event.
func (q *Queue) EventAt(h Handle) (config.Time, bool) {
	if q.live(h) == nil {
		return 0, false
	}
	if i := find(q.near, h.idx); i >= 0 {
		return q.near[i].at, true
	}
	return q.heap[find(q.heap, h.idx)].at, true
}

// Cancel removes a pending event eagerly: the node leaves the queue and
// returns to the pool immediately, so long-lived cancellations (relock
// or refresh reschedules) cannot bloat the queue. Cancelling a fired,
// already cancelled, or recycled handle is a no-op; the generation
// check guarantees a stale handle can never cancel the slot's next
// occupant. It reports whether an event was actually cancelled.
func (q *Queue) Cancel(h Handle) bool {
	if q.live(h) == nil {
		return false
	}
	if i := find(q.near, h.idx); i >= 0 {
		q.near = q.near[:i+copy(q.near[i:], q.near[i+1:])]
	} else {
		q.heapRemove(find(q.heap, h.idx))
	}
	q.release(h.idx)
	return true
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain. The node is
// recycled before the callback runs, so a callback scheduling a new
// event may reuse the slot; the generation bump keeps old handles
// inert.
func (q *Queue) Step() bool {
	for len(q.defers) > 0 {
		if e, ok := q.top(); ok && !deferredBefore(&q.defers[len(q.defers)-1], e) {
			break
		}
		q.materializeDeferred()
	}
	e, ok := q.pop()
	if !ok {
		return false
	}
	n := &q.nodes[e.idx]
	fn, bfn, env, a, b := n.fn, n.bfn, n.env, n.a, n.b
	q.release(e.idx)
	q.now = e.at
	q.firing = e.seq
	q.fired++
	if bfn != nil {
		bfn(e.at, env, a, b)
	} else {
		fn(e.at)
	}
	return true
}

// RunUntil executes events in order until the next event would fire
// after the deadline (or no events remain), then advances the clock to
// exactly the deadline. Events at the deadline itself do fire.
func (q *Queue) RunUntil(deadline config.Time) {
	if deadline < q.now {
		panic(fmt.Sprintf("event: RunUntil(%v) before now %v", deadline, q.now))
	}
	for {
		if e, ok := q.top(); ok && e.at <= deadline {
			q.Step()
			continue
		}
		// With no fireable event left, deferred schedules activating
		// within the deadline still migrate: their trampolines would
		// have fired by now, and the targets they produce may
		// themselves fire before the deadline.
		if n := len(q.defers); n > 0 && q.defers[n-1].activateAt <= deadline {
			q.materializeDeferred()
			continue
		}
		break
	}
	q.now = deadline
}

// RunUntilExclusive executes events strictly preceding the position
// (t, bound) in global (time, seq) order: every pending event or
// deferred activation with at < t, or at == t and seq < bound, fires;
// everything at or after the position stays queued. The clock then
// advances to exactly t. A ShardSet uses this to drain each shard up
// to — but not past — a cross-shard event's reserved position before
// executing the cross-shard callback serially.
func (q *Queue) RunUntilExclusive(t config.Time, bound Seq) {
	if t < q.now {
		panic(fmt.Sprintf("event: RunUntilExclusive(%v) before now %v", t, q.now))
	}
	before := func(at config.Time, seq uint64) bool {
		return at < t || (at == t && seq < uint64(bound))
	}
	for {
		if e, ok := q.top(); ok && before(e.at, e.seq) {
			q.Step()
			continue
		}
		if n := len(q.defers); n > 0 && before(q.defers[n-1].activateAt, q.defers[n-1].seq) {
			q.materializeDeferred()
			continue
		}
		break
	}
	q.now = t
}

// Run executes events until the queue is empty or limit events have
// fired; limit <= 0 means no limit. It returns the number of events
// executed.
func (q *Queue) Run(limit uint64) uint64 {
	var n uint64
	for limit <= 0 || n < limit {
		if !q.Step() {
			break
		}
		n++
	}
	return n
}

// NextAt returns the timestamp of the next event to fire and whether
// one exists. A deferred schedule counts at its fire time (its
// activation alone executes nothing observable).
func (q *Queue) NextAt() (config.Time, bool) {
	e, ok := q.top()
	at := e.at
	for i := range q.defers {
		if f := q.defers[i].fireAt; !ok || f < at {
			at, ok = f, true
		}
	}
	return at, ok
}

// heapFirst reports whether the earliest pending entry is the heap
// root rather than near's tail.
func (q *Queue) heapFirst() bool {
	n := len(q.near)
	return len(q.heap) > 0 && (n == 0 || entryLess(q.heap[0], q.near[n-1]))
}

// top returns the earliest pending entry.
func (q *Queue) top() (entry, bool) {
	if q.heapFirst() {
		return q.heap[0], true
	}
	if n := len(q.near); n > 0 {
		return q.near[n-1], true
	}
	return entry{}, false
}

// pop removes and returns the earliest pending entry.
func (q *Queue) pop() (entry, bool) {
	if q.heapFirst() {
		return q.popRoot(), true
	}
	n := len(q.near)
	if n == 0 {
		return entry{}, false
	}
	e := q.near[n-1]
	q.near = q.near[:n-1]
	return e, true
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

// find scans es for the entry of the given node index, returning its
// position or -1. The queue is small (tens of entries), and only the
// cold paths — Cancel and EventAt — need a position, so a scan beats
// maintaining per-node positions on every move of the hot path.
func find(es []entry, idx int32) int {
	for i := range es {
		if es[i].idx == idx {
			return i
		}
	}
	return -1
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

// popRoot removes and returns the minimum heap entry.
func (q *Queue) popRoot() entry {
	root := q.heap[0]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n] // entries hold no pointers; no need to zero
	if n > 0 {
		q.heap[0] = last
		q.siftDown(0)
	}
	return root
}

// heapRemove deletes the entry at heap position i (eager cancellation).
func (q *Queue) heapRemove(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if i == n {
		return
	}
	q.heap[i] = last
	q.siftDown(i)
	if q.heap[i].idx == last.idx {
		q.siftUp(i)
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
