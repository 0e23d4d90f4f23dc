package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"memscale/internal/config"
)

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func(config.Time) { order = append(order, i) })
	}
	q.Run(0)
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
	q.Run(0)
	if q.FreeNodes() == 0 {
		t.Fatal("pool should hold recycled slots")
	}
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		q.Schedule(1000, func(config.Time) { order = append(order, i) })
	}
	q.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("recycled same-instant events out of order: %v", order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	times := []config.Time{50, 10, 30, 20, 40, 10, 50}
	var fired []config.Time
	for _, at := range times {
		q.Schedule(at, func(now config.Time) { fired = append(fired, now) })
	}
	q.Run(0)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of time order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	ran := false
	h := q.Schedule(10, func(config.Time) { ran = true })
	if !q.Pending(h) {
		t.Error("event should report pending")
	}
	if at, ok := q.EventAt(h); !ok || at != 10 {
		t.Errorf("EventAt = %v, %v", at, ok)
	}
	if !q.Cancel(h) {
		t.Error("Cancel of a pending event must report true")
	}
	if q.Pending(h) {
		t.Error("cancelled event still reports pending")
	}
	q.Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
	if q.Cancel(h) {
		t.Error("double cancel must report false")
	}
	if q.Cancel(Handle{}) {
		t.Error("zero handle cancel must report false")
	}
}

func TestCancelRemovesEagerly(t *testing.T) {
	// A cancelled event must leave the heap immediately, not linger
	// until its fire time (the old lazy-deletion leak).
	var q Queue
	handles := make([]Handle, 100)
	for i := range handles {
		handles[i] = q.Schedule(config.Time(1000+i), func(config.Time) {})
	}
	for _, h := range handles {
		q.Cancel(h)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancelling everything, want 0 (eager removal)", q.Len())
	}
	if q.FreeNodes() != 100 {
		t.Errorf("FreeNodes = %d, want 100 (cancelled nodes recycled)", q.FreeNodes())
	}
}

func TestCancelledHandleCannotHitRecycledSlot(t *testing.T) {
	// Generation safety: after a slot is recycled, a stale handle to
	// its previous occupant must be inert.
	var q Queue
	h1 := q.Schedule(10, func(config.Time) { t.Error("cancelled event fired") })
	q.Cancel(h1)

	ran := false
	h2 := q.Schedule(20, func(config.Time) { ran = true })
	if h2.idx != h1.idx {
		t.Fatalf("expected slot reuse: h1.idx=%d h2.idx=%d", h1.idx, h2.idx)
	}
	if q.Cancel(h1) {
		t.Error("stale handle cancelled the slot's new occupant")
	}
	q.Run(0)
	if !ran {
		t.Error("event killed by a stale handle to a recycled slot")
	}
}

func TestFiredHandleCannotHitRecycledSlot(t *testing.T) {
	// Same generation check for handles to already-fired events.
	var q Queue
	h1 := q.Schedule(10, func(config.Time) {})
	q.Run(0)
	ran := false
	h2 := q.Schedule(20, func(config.Time) { ran = true })
	if h2.idx != h1.idx {
		t.Fatalf("expected slot reuse: h1.idx=%d h2.idx=%d", h1.idx, h2.idx)
	}
	if q.Pending(h1) {
		t.Error("fired handle reports pending after slot reuse")
	}
	if q.Cancel(h1) {
		t.Error("fired handle cancelled the slot's new occupant")
	}
	q.Run(0)
	if !ran {
		t.Error("event killed by a stale fired handle")
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
	q.Run(0)
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
	q.AfterBound(10, fn, e, 1, 2)
	q.Run(0)
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
	q.Run(0)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("interleaved order = %v", order)
	}
}

func TestCancelFromHandler(t *testing.T) {
	var q Queue
	ran := false
	victim := q.Schedule(20, func(config.Time) { ran = true })
	q.Schedule(10, func(config.Time) { q.Cancel(victim) })
	q.Run(0)
	if ran {
		t.Error("event cancelled from an earlier handler still ran")
	}
}

func TestScheduleFromHandler(t *testing.T) {
	var q Queue
	var seen []config.Time
	q.Schedule(10, func(now config.Time) {
		seen = append(seen, now)
		q.After(5, func(now config.Time) { seen = append(seen, now) })
	})
	q.Run(0)
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
	q.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past must panic")
		}
	}()
	q.Schedule(5, func(config.Time) {})
}

func TestNegativeAfterPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Error("negative After delay must panic")
		}
	}()
	q.After(-1, func(config.Time) {})
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

func TestCounters(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Schedule(config.Time(i), func(config.Time) {})
	}
	h := q.Schedule(99, func(config.Time) {})
	q.Cancel(h)
	q.Run(0)
	if q.ScheduledTotal() != 6 {
		t.Errorf("ScheduledTotal = %d, want 6", q.ScheduledTotal())
	}
	if q.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", q.Fired())
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
}

func TestNextAt(t *testing.T) {
	var q Queue
	if _, ok := q.NextAt(); ok {
		t.Error("empty queue should have no next event")
	}
	q.Schedule(42, func(config.Time) {})
	if at, ok := q.NextAt(); !ok || at != 42 {
		t.Errorf("NextAt = %v, %v", at, ok)
	}
}

// TestRandomizedOrdering is a property test: for any batch of events
// with random times and random cancellations, the survivors fire in
// nondecreasing time order and cancelled events never fire.
func TestRandomizedOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		count := int(n%64) + 1
		type rec struct {
			h         Handle
			cancelled bool
		}
		recs := make([]*rec, count)
		firedAt := make([]config.Time, 0, count)
		for i := 0; i < count; i++ {
			r := &rec{}
			recs[i] = r
			at := config.Time(rng.Intn(1000))
			r.h = q.Schedule(at, func(now config.Time) {
				if r.cancelled {
					t.Errorf("cancelled event fired at %v", now)
				}
				firedAt = append(firedAt, now)
			})
		}
		survivors := count
		for _, r := range recs {
			if rng.Intn(3) == 0 {
				r.cancelled = true
				q.Cancel(r.h)
				survivors--
			}
		}
		if q.Len() != survivors {
			return false // eager removal must shrink the heap
		}
		q.Run(0)
		if len(firedAt) != survivors {
			return false
		}
		return sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
	q.Run(0)
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
	q.Run(0)
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

// BenchmarkEventQueueCancel measures the eager-removal path.
func BenchmarkEventQueueCancel(b *testing.B) {
	var q Queue
	fn := Bound(func(config.Time, any, int32, int32) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := q.ScheduleBound(q.Now()+config.Time(64+i%128), fn, nil, 0, 0)
		q.ScheduleBound(q.Now()+config.Time(i%64), fn, nil, 0, 0)
		q.Cancel(h)
		if q.Len() > 1024 {
			for q.Len() > 512 {
				q.Step()
			}
		}
	}
	b.StopTimer()
	q.Run(0)
}
