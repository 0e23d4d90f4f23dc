package event

import (
	"fmt"
	"testing"

	"memscale/internal/config"
)

// idCodec checkpoints bound events that carry their id in a, logging
// each fire's (time, id) into log.
type idCodec struct{ log *[]fuzzFire }

func (c idCodec) bound() Bound {
	return func(now config.Time, _ any, a, _ int32) {
		*c.log = append(*c.log, fuzzFire{at: now, id: a})
	}
}

func (idCodec) Encode(fn Handler, bfn Bound, env any) (string, int32, error) {
	if bfn == nil || env != nil {
		return "", 0, fmt.Errorf("unexpected callback")
	}
	return "id", 0, nil
}

func (c idCodec) Decode(kind string, _ int32) (Handler, Bound, any, error) {
	if kind != "id" {
		return nil, nil, nil, fmt.Errorf("unknown kind %q", kind)
	}
	return nil, c.bound(), nil, nil
}

// heapOrdered reports whether keys form a valid 4-ary min-heap image.
func heapOrdered(n int, less func(i, j int) bool) bool {
	for i := 1; i < n; i++ {
		if less(i, (i-1)/4) {
			return false
		}
	}
	return true
}

// heapify rebuilds keys into the 4-ary heap image that pushing them in
// descending order produces — the unsorted layout earlier versions of
// the engine wrote.
func heapify[T any](keys []T, less func(a, b T) bool) []T {
	var h []T
	for k := len(keys) - 1; k >= 0; k-- {
		h = append(h, keys[k])
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 4
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	return h
}

// TestLoadHeapImage pins checkpoint compatibility in both directions:
// Save writes entries and deferred schedules in ascending (time, seq)
// order, which is also a valid 4-ary heap image, and a state whose
// entries come as an unsorted heap image loads and fires in the same
// order as the queue that produced it.
func TestLoadHeapImage(t *testing.T) {
	var log []fuzzFire
	codec := idCodec{&log}
	fn := codec.bound()
	var q Queue
	var handles []Handle
	x := uint32(12345)
	for id := int32(0); id < 200; id++ {
		x = x*1664525 + 1013904223
		d := config.Time(x>>20) % 500
		switch id % 5 {
		case 0:
			q.ScheduleVia(q.Now()+d, q.Now()+d+d%4, fn, nil, id, 0)
		case 1:
			tk := q.ReserveSeq()
			q.ScheduleBound(q.Now()+d, fn, nil, -1-id, 0)
			handles = append(handles, q.ScheduleBoundSeq(q.Now()+d+1, tk, fn, nil, id, 0))
		default:
			handles = append(handles, q.ScheduleBound(q.Now()+d, fn, nil, id, 0))
		}
		if id%7 == 6 {
			q.Cancel(handles[int(x)%len(handles)])
		}
		if id%3 == 0 {
			q.Step()
		}
	}
	st, err := q.Save(codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Heap) <= nearCap || len(st.Defers) < 2 {
		t.Fatalf("state holds %d entries and %d deferred schedules; want more than %d and at least 2",
			len(st.Heap), len(st.Defers), nearCap)
	}
	entryKeyLess := func(a, b EntryState) bool { return cmpKey(a.At, a.Seq, b.At, b.Seq) < 0 }
	deferKeyLess := func(a, b DeferredState) bool { return cmpKey(a.ActivateAt, a.Seq, b.ActivateAt, b.Seq) < 0 }
	for i := 1; i < len(st.Heap); i++ {
		if !entryKeyLess(st.Heap[i-1], st.Heap[i]) {
			t.Fatalf("saved entries not ascending at %d", i)
		}
	}
	for i := 1; i < len(st.Defers); i++ {
		if !deferKeyLess(st.Defers[i-1], st.Defers[i]) {
			t.Fatalf("saved deferred schedules not ascending at %d", i)
		}
	}
	if !heapOrdered(len(st.Heap), func(i, j int) bool { return entryKeyLess(st.Heap[i], st.Heap[j]) }) {
		t.Fatal("saved entries are not a valid 4-ary heap image")
	}

	old := *st
	old.Heap = heapify(st.Heap, entryKeyLess)
	old.Defers = heapify(st.Defers, deferKeyLess)
	if !heapOrdered(len(old.Heap), func(i, j int) bool { return entryKeyLess(old.Heap[i], old.Heap[j]) }) ||
		!heapOrdered(len(old.Defers), func(i, j int) bool { return deferKeyLess(old.Defers[i], old.Defers[j]) }) {
		t.Fatal("heapify built an invalid heap image")
	}
	sorted := true
	for i := 1; i < len(old.Heap); i++ {
		sorted = sorted && entryKeyLess(old.Heap[i-1], old.Heap[i])
	}
	if sorted {
		t.Fatal("heap image is sorted; the test needs an unsorted layout")
	}

	drain := func(q *Queue) []fuzzFire {
		log = log[:0]
		q.Run(0)
		return append([]fuzzFire(nil), log...)
	}
	var fromOld Queue
	if err := fromOld.Load(&old, codec); err != nil {
		t.Fatal(err)
	}
	want, got := drain(&q), drain(&fromOld)
	if len(want) != len(got) {
		t.Fatalf("heap-image load fired %d events, original %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("fire %d: heap-image load %+v, original %+v", i, got[i], want[i])
		}
	}
	if fromOld.Fired() != q.Fired() || fromOld.ScheduledTotal() != q.ScheduledTotal() || fromOld.PoolSize() != q.PoolSize() {
		t.Fatal("heap-image load's counters differ from the original's")
	}
}
