package event

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"memscale/internal/config"
	"memscale/internal/racebuild"
)

// drain fires every pending event.
func drain(q *Queue) {
	for q.Step() {
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func(config.Time) { order = append(order, i) })
	}
	drain(&q)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
	if q.Now() != 100 {
		t.Errorf("clock = %v, want 100", q.Now())
	}
}

func TestFIFOAtSameInstantAfterRecycling(t *testing.T) {
	// Same-instant FIFO must survive node recycling: burn slots through
	// the pool first, then check ordering on reused slots.
	var q Queue
	for i := 0; i < 32; i++ {
		q.Schedule(config.Time(i), func(config.Time) {})
	}
	drain(&q)
	if q.PoolSize() != 32 {
		t.Fatalf("PoolSize = %d after 32 events, want 32", q.PoolSize())
	}
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		q.Schedule(1000, func(config.Time) { order = append(order, i) })
	}
	drain(&q)
	for i, v := range order {
		if v != i {
			t.Fatalf("recycled same-instant events out of order: %v", order)
		}
	}
	if q.PoolSize() != 32 {
		t.Errorf("PoolSize = %d, want 32 (recycled slots reused)", q.PoolSize())
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	times := []config.Time{50, 10, 30, 20, 40, 10, 50}
	var fired []config.Time
	for _, at := range times {
		q.Schedule(at, func(now config.Time) { fired = append(fired, now) })
	}
	drain(&q)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of time order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestPoolReuse(t *testing.T) {
	// A self-rescheduling chain must reach steady state with a pool no
	// larger than its concurrency (one pending event at a time).
	var q Queue
	n := 0
	var tick Handler
	tick = func(now config.Time) {
		n++
		if n < 10000 {
			q.Schedule(now+1, tick)
		}
	}
	q.Schedule(0, tick)
	drain(&q)
	if n != 10000 {
		t.Fatalf("fired %d, want 10000", n)
	}
	// Step releases the node before invoking the handler, so the chain
	// needs exactly one slot.
	if q.PoolSize() != 1 {
		t.Errorf("PoolSize = %d for a 1-deep chain, want 1", q.PoolSize())
	}
}

func TestScheduleBound(t *testing.T) {
	var q Queue
	type env struct{ hits int }
	e := &env{}
	var got []int32
	fn := Bound(func(now config.Time, v any, a, b int32) {
		v.(*env).hits++
		got = append(got, a, b)
	})
	q.ScheduleBound(5, fn, e, 7, -3)
	q.ScheduleBound(q.Now()+10, fn, e, 1, 2)
	drain(&q)
	if e.hits != 2 {
		t.Fatalf("bound handler hits = %d, want 2", e.hits)
	}
	if len(got) != 4 || got[0] != 7 || got[1] != -3 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("bound args = %v", got)
	}
	if q.Now() != 10 {
		t.Errorf("clock = %v, want 10", q.Now())
	}
}

func TestBoundAndClosureInterleave(t *testing.T) {
	// Bound and closure events at the same instant keep schedule order.
	var q Queue
	var order []int
	q.Schedule(10, func(config.Time) { order = append(order, 0) })
	q.ScheduleBound(10, func(config.Time, any, int32, int32) { order = append(order, 1) }, nil, 0, 0)
	q.Schedule(10, func(config.Time) { order = append(order, 2) })
	drain(&q)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("interleaved order = %v", order)
	}
}

func TestScheduleFromHandler(t *testing.T) {
	var q Queue
	var seen []config.Time
	q.Schedule(10, func(now config.Time) {
		seen = append(seen, now)
		q.Schedule(now+5, func(now config.Time) { seen = append(seen, now) })
	})
	drain(&q)
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 15 {
		t.Fatalf("nested scheduling: %v", seen)
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var fired []config.Time
	for _, at := range []config.Time{5, 10, 15, 20} {
		q.Schedule(at, func(now config.Time) { fired = append(fired, now) })
	}
	q.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(10) fired %d events, want 2 (inclusive)", len(fired))
	}
	if q.Now() != 10 {
		t.Errorf("clock = %v after RunUntil(10)", q.Now())
	}
	q.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d total, want 4", len(fired))
	}
	if q.Now() != 100 {
		t.Errorf("clock must land on the deadline, got %v", q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue
	q.Schedule(10, func(config.Time) {})
	drain(&q)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	q.Schedule(5, func(config.Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("nil handler must panic")
		}
	}()
	q.Schedule(1, nil)
}

func TestNilBoundHandlerPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("nil bound handler must panic")
		}
	}()
	q.ScheduleBound(1, nil, nil, 0, 0)
}

// TestCounters checks the accounting: a deferral counts as coalesced
// when scheduled and as scheduled only once it materializes, so a
// withdrawn one never reaches ScheduledTotal.
func TestCounters(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Schedule(config.Time(i), func(config.Time) {})
	}
	fn := Bound(func(config.Time, any, int32, int32) {})
	q.ScheduleVia(2, 3, fn, nil, 0, 0)
	q.ScheduleVia(99, 99, fn, nil, 0, 0)
	if !q.CancelDeferred(Seq(q.seq)) {
		t.Fatal("CancelDeferred found no pending deferral")
	}
	drain(&q)
	if q.ScheduledTotal() != 6 {
		t.Errorf("ScheduledTotal = %d, want 6", q.ScheduledTotal())
	}
	if q.Fired() != 6 {
		t.Errorf("Fired = %d, want 6", q.Fired())
	}
	if q.Coalesced() != 2 {
		t.Errorf("Coalesced = %d, want 2", q.Coalesced())
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
}

// TestRandomizedOrdering is a property test: for any batch of events
// with random times, some scheduled directly and some deferred, with
// random deferrals withdrawn, the survivors fire in nondecreasing time
// order and withdrawn deferrals never fire.
func TestRandomizedOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 1
		cancelled := make([]bool, count)
		firedAt := make([]config.Time, 0, count)
		fn := Bound(func(now config.Time, _ any, id, _ int32) {
			if cancelled[id] {
				t.Errorf("withdrawn deferral %d fired at %v", id, now)
			}
			firedAt = append(firedAt, now)
		})
		type deferral struct {
			tk Seq
			id int32
		}
		var deferrals []deferral
		for i := 0; i < count; i++ {
			at := config.Time(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				q.ScheduleBound(at, fn, nil, int32(i), 0)
				continue
			}
			q.ScheduleVia(config.Time(rng.Int63n(int64(at)+1)), at, fn, nil, int32(i), 0)
			deferrals = append(deferrals, deferral{Seq(q.seq), int32(i)})
		}
		survivors := count
		for _, d := range deferrals {
			if rng.Intn(3) == 0 {
				cancelled[d.id] = q.CancelDeferred(d.tk)
				survivors--
			}
		}
		if q.Len() != survivors {
			return false
		}
		drain(&q)
		if len(firedAt) != survivors {
			return false
		}
		return sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEntryKeyPacking checks the 16-byte pending key: the packed
// fields unpack exactly, (at, seq) order holds at the fields' boundary
// values whatever the node indices, and a sequence number or node index
// too wide for its field panics instead of wrapping.
func TestEntryKeyPacking(t *testing.T) {
	const maxAt = config.Time(math.MaxInt64)
	// Ascending (at, seq); the node indices run against the order.
	keys := []struct {
		at  config.Time
		seq uint64
		idx int32
	}{
		{0, 0, maxIdx},
		{0, 1, maxIdx},
		{0, maxSeq, 0},
		{1, 0, maxIdx},
		{maxAt - 1, maxSeq, 0},
		{maxAt, 0, maxIdx},
		{maxAt, 1, maxIdx - 1},
		{maxAt, maxSeq - 1, maxIdx},
		{maxAt, maxSeq, 0},
	}
	es := make([]entry, len(keys))
	for i, k := range keys {
		es[i] = makeEntry(k.at, k.seq, k.idx)
		if es[i].at != k.at || es[i].seq() != k.seq || es[i].idx() != k.idx {
			t.Errorf("key %+v unpacked as (%v, %d, %d)", k, es[i].at, es[i].seq(), es[i].idx())
		}
	}
	for i := range es {
		for j := range es {
			if got, want := entryLess(es[i], es[j]), i < j; got != want {
				t.Errorf("entryLess(%+v, %+v) = %v, want %v", keys[i], keys[j], got, want)
			}
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("seq past the field", func() { makeEntry(0, maxSeq+1, 0) })
	mustPanic("index past the field", func() { makeEntry(0, 0, maxIdx+1) })
	mustPanic("negative index", func() { makeEntry(0, 0, -1) })

	// Through the queue: the last representable sequence number still
	// orders behind an earlier ticket at the same instant, and the next
	// schedule panics.
	var q Queue
	var order []int32
	fn := Bound(func(_ config.Time, _ any, a, _ int32) { order = append(order, a) })
	q.seq = maxSeq - 2
	early := q.ReserveSeq()               // maxSeq - 1 ...
	q.ScheduleBound(maxAt, fn, nil, 2, 0) // ... and maxSeq
	q.ScheduleBoundSeq(maxAt, early, fn, nil, 1, 0)
	q.RunUntil(maxAt)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("fire order %v, want [1 2]", order)
	}
	mustPanic("schedule past the last sequence number", func() { q.ScheduleBound(maxAt, fn, nil, 3, 0) })
	mustPanic("reserved ticket past the field", func() { q.ScheduleBoundSeq(maxAt, Seq(maxSeq+1), fn, nil, 3, 0) })

	// A checkpoint whose keys would not pack, or that no queue could
	// have saved, is rejected, not loaded.
	codec := idCodec{log: new([]fuzzFire)}
	id := []NodeState{{Kind: "id"}}
	bad := []struct {
		why string
		st  State
	}{
		{"a queue seq past the field", State{Seq: maxSeq + 1}},
		{"an entry seq past the field", State{Seq: maxSeq, Nodes: id,
			Heap: []EntryState{{At: 0, Seq: maxSeq + 1, Idx: 0}}}},
		{"an entry seq past the queue's", State{Seq: 5, Nodes: id,
			Heap: []EntryState{{At: 0, Seq: 6, Idx: 0}}}},
		{"a deferral seq past the queue's", State{Seq: 5,
			Defers: []DeferredState{{Seq: 6, Kind: "id"}}}},
		{"a deferral seq past the field", State{Seq: maxSeq,
			Defers: []DeferredState{{Seq: 1 << 45, Kind: "id"}}}},
		{"a deferral activating before now", State{Now: 100, Seq: 5,
			Defers: []DeferredState{{ActivateAt: 50, Seq: 1, FireAt: 60, Kind: "id"}}}},
		{"a node named twice", State{Seq: 5, Nodes: id,
			Heap: []EntryState{{At: 0, Seq: 1, Idx: 0}, {At: 0, Seq: 2, Idx: 0}}}},
		{"a payload on an unreferenced node", State{Seq: 5, Nodes: id}},
	}
	for _, c := range bad {
		var l Queue
		if err := l.Load(&c.st, codec); err == nil {
			t.Errorf("Load accepted a state with %s", c.why)
		}
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+config.Time(i%128), func(config.Time) {})
		if q.Len() > 1024 {
			for q.Len() > 512 {
				q.Step()
			}
		}
	}
	drain(&q)
}

// BenchmarkEventQueue is the zero-allocation reference: a warmed pool
// driven entirely through the bound form must schedule and fire with 0
// allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	var q Queue
	fn := Bound(func(config.Time, any, int32, int32) {})
	// Warm the pool and the heap arena.
	for i := 0; i < 1024; i++ {
		q.ScheduleBound(q.Now()+config.Time(i%128), fn, nil, 0, 0)
	}
	for q.Len() > 512 {
		q.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleBound(q.Now()+config.Time(i%128), fn, nil, int32(i), 0)
		if q.Len() > 1024 {
			for q.Len() > 512 {
				q.Step()
			}
		}
	}
	b.StopTimer()
	drain(&q)
}

// BenchmarkEventQueuePaperShape drives the queue with the shape the
// simulator produces: 16 refresh timers re-armed 7.8 µs ahead and 16
// events churning a few nanoseconds ahead, so about 32 are pending and
// nearly every schedule lands near the front. Each op fires one event,
// which re-schedules itself.
func BenchmarkEventQueuePaperShape(b *testing.B) {
	var q Queue
	const refresh = 7800 * config.Nanosecond
	var timer, churn Bound
	timer = func(now config.Time, _ any, a, _ int32) {
		q.ScheduleBound(now+refresh, timer, nil, a, 0)
	}
	churn = func(now config.Time, _ any, a, _ int32) {
		q.ScheduleBound(now+config.Time(1+a*7%40)*config.Nanosecond, churn, nil, a+1, 0)
	}
	for k := int32(0); k < 16; k++ {
		q.ScheduleBound(config.Time(k)*refresh/16, timer, nil, k, 0)
		q.ScheduleBound(config.Time(k)*config.Nanosecond, churn, nil, k, 0)
	}
	for i := 0; i < 4096; i++ {
		q.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
}

// TestZeroAllocs requires the bound-form benchmarks to schedule and
// fire with 0 allocs/op in steady state.
func TestZeroAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates and slows the benchmarks")
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkEventQueue", BenchmarkEventQueue},
		{"BenchmarkEventQueuePaperShape", BenchmarkEventQueuePaperShape},
	} {
		if got := testing.Benchmark(bm.fn).AllocsPerOp(); got != 0 {
			t.Errorf("%s: %d allocs/op, want 0", bm.name, got)
		}
	}
}
