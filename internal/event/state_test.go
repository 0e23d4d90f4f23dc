package event

import (
	"encoding/json"
	"fmt"
	"strings"
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

func (idCodec) Encode(_ Bound, env any) (string, int32, error) {
	if env != nil {
		return "", 0, fmt.Errorf("unexpected env %T", env)
	}
	return "id", 0, nil
}

func (c idCodec) Decode(kind string, _ int32) (Bound, any, error) {
	if kind != "id" {
		return nil, nil, fmt.Errorf("unknown kind %q", kind)
	}
	return c.bound(), nil, nil
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
			q.ScheduleBoundSeq(q.Now()+d+1, tk, fn, nil, id, 0)
		default:
			q.ScheduleBound(q.Now()+d, fn, nil, id, 0)
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

	var fromOld Queue
	if err := fromOld.Load(&old, codec); err != nil {
		t.Fatal(err)
	}
	want, got := drainLog(&q, &log), drainLog(&fromOld, &log)
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

// drainLog fires every pending event of q and returns what fired,
// reusing log, the codec's fire log.
func drainLog(q *Queue, log *[]fuzzFire) []fuzzFire {
	*log = (*log)[:0]
	drain(q)
	return append([]fuzzFire(nil), *log...)
}

// legacyQueue builds a queue with pending entries, recycled and free
// node slots and deferred schedules. legacyImage is its image in the
// form earlier versions of Save wrote: every node with its generation
// counter and position, and the free list.
func legacyQueue(fn Bound) *Queue {
	var q Queue
	for id := int32(0); id < 24; id++ {
		d := config.Time(id * 37 % 29)
		switch id % 4 {
		case 0:
			q.ScheduleVia(q.Now()+d, q.Now()+d+3, fn, nil, id, 0)
		case 1:
			tk := q.ReserveSeq()
			q.ScheduleBound(q.Now()+d, fn, nil, id, 0)
			q.ScheduleBoundSeq(q.Now()+d+1, tk, fn, nil, 100+id, 0)
		default:
			q.ScheduleBound(q.Now()+d, fn, nil, id, 0)
		}
		if id%3 == 2 {
			q.Step()
			q.Step()
		}
	}
	return &q
}

const legacyImage = `{"now":36,"seq":34,"fired":16,"scheduled":28,"coalesced":6,"firing":33,
"nodes":[{"gen":4,"pos":-1},{"gen":4,"pos":0,"kind":"id","a":18},{"gen":3,"pos":0,"kind":"id","a":21},
{"gen":4,"pos":0,"kind":"id","a":121},{"gen":4,"pos":0,"kind":"id","a":19},{"gen":1,"pos":0,"kind":"id","a":7},
{"gen":1,"pos":0,"kind":"id","a":10},{"gen":2,"pos":0,"kind":"id","a":13},{"gen":1,"pos":0,"kind":"id","a":113},
{"gen":1,"pos":0,"kind":"id","a":14},{"gen":1,"pos":0,"kind":"id","a":17},{"gen":1,"pos":0,"kind":"id","a":117},
{"gen":2,"pos":-1},{"gen":1,"pos":0,"kind":"id","a":23}],
"free":[0,12],
"heap":[{"at":37,"seq":21,"idx":7},{"at":38,"seq":20,"idx":8},{"at":40,"seq":29,"idx":4},
{"at":41,"seq":12,"idx":5},{"at":41,"seq":16,"idx":6},{"at":44,"seq":34,"idx":13},{"at":45,"seq":22,"idx":9},
{"at":52,"seq":27,"idx":10},{"at":53,"seq":26,"idx":11},{"at":57,"seq":32,"idx":2},{"at":58,"seq":31,"idx":3},
{"at":61,"seq":28,"idx":1}],
"defers":[{"activate_at":44,"seq":25,"fire_at":47,"kind":"id","owner":0,"a":16},
{"activate_at":48,"seq":30,"fire_at":51,"kind":"id","owner":0,"a":20}]}`

// TestLoadLegacyImage checks that an image in the earlier form, with
// generation counters, positions and the free list, fires the same
// (time, id) sequence as the slimmer image Save now writes for the same
// queue, and as the queue itself; Save writes none of those keys.
func TestLoadLegacyImage(t *testing.T) {
	var log []fuzzFire
	codec := idCodec{&log}
	q := legacyQueue(codec.bound())
	st, err := q.Save(codec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"gen"`, `"pos"`, `"free"`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("saved image still writes %s: %s", key, raw)
		}
	}
	load := func(image []byte) *Queue {
		t.Helper()
		var st State
		if err := json.Unmarshal(image, &st); err != nil {
			t.Fatal(err)
		}
		var l Queue
		if err := l.Load(&st, codec); err != nil {
			t.Fatal(err)
		}
		return &l
	}
	want := []fuzzFire{{at: 37, id: 13}, {at: 38, id: 113}, {at: 40, id: 19}, {at: 41, id: 7},
		{at: 41, id: 10}, {at: 44, id: 23}, {at: 45, id: 14}, {at: 47, id: 16}, {at: 51, id: 20},
		{at: 52, id: 17}, {at: 53, id: 117}, {at: 57, id: 21}, {at: 58, id: 121}, {at: 61, id: 18}}
	for _, side := range []struct {
		name string
		q    *Queue
	}{{"original", q}, {"legacy image", load([]byte(legacyImage))}, {"saved image", load(raw)}} {
		if side.q.PoolSize() != 14 {
			t.Errorf("%s: PoolSize %d, want 14", side.name, side.q.PoolSize())
		}
		if got := drainLog(side.q, &log); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s fired %v, want %v", side.name, got, want)
		}
		if side.q.Fired() != 30 || side.q.ScheduledTotal() != 30 || side.q.PoolSize() != 14 {
			t.Errorf("%s: Fired %d, ScheduledTotal %d, PoolSize %d after the drain, want 30, 30, 14",
				side.name, side.q.Fired(), side.q.ScheduledTotal(), side.q.PoolSize())
		}
	}
}
