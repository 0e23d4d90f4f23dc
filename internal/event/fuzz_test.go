package event

import (
	"fmt"
	"testing"

	"memscale/internal/config"
)

// fuzzSide is one queue driven by FuzzScheduleStep, with the log of
// what fired on it. Every event carries an id: bound callbacks in their
// a argument, plain handlers through the sequence number they were
// scheduled with.
type fuzzSide struct {
	t       *testing.T
	q       *Queue
	handler Handler
	seqID   map[uint64]int32 // pending plain handler's schedule seq -> id
	log     []fuzzFire
	fires   map[int32]int // id -> times fired
}

type fuzzFire struct {
	at  config.Time
	seq uint64
	id  int32
}

func newFuzzSide(t *testing.T) *fuzzSide {
	s := &fuzzSide{t: t, q: &Queue{}, seqID: map[uint64]int32{}, fires: map[int32]int{}}
	s.handler = func(now config.Time) {
		id, ok := s.seqID[s.q.FiringSeq()]
		if !ok {
			t.Fatalf("plain handler fired at unknown seq %d", s.q.FiringSeq())
		}
		delete(s.seqID, s.q.FiringSeq())
		s.record(now, id)
	}
	return s
}

func fuzzBound(now config.Time, env any, a, _ int32) { env.(*fuzzSide).record(now, a) }

func (s *fuzzSide) record(now config.Time, id int32) {
	if now != s.q.Now() {
		s.t.Fatalf("event %d fired at %v with the clock at %v", id, now, s.q.Now())
	}
	f := fuzzFire{at: now, seq: s.q.FiringSeq(), id: id}
	if n := len(s.log); n > 0 {
		if p := s.log[n-1]; f.at < p.at || (f.at == p.at && f.seq <= p.seq) {
			s.t.Fatalf("fire (%v, %d) does not follow (%v, %d)", f.at, f.seq, p.at, p.seq)
		}
	}
	s.log = append(s.log, f)
	s.fires[id]++
}

// Encode and Decode make fuzzSide the Codec of its own queue.
func (s *fuzzSide) Encode(_ Bound, env any) (string, int32, error) {
	if env != any(s) {
		return "", 0, fmt.Errorf("foreign callback")
	}
	return "bound", 0, nil
}

func (s *fuzzSide) Decode(kind string, _ int32) (Bound, any, error) {
	if kind != "bound" {
		return nil, nil, fmt.Errorf("unknown kind %q", kind)
	}
	return fuzzBound, s, nil
}

// roundTrip replaces the queue with a fresh one loaded from its saved
// state. A queue with a plain handler pending cannot be saved; it is
// kept as it is.
func (s *fuzzSide) roundTrip() {
	st, err := s.q.Save(s)
	if n := len(s.seqID); n > 0 {
		if err == nil {
			s.t.Fatalf("Save accepted a queue with %d plain handlers pending", n)
		}
		return
	}
	if err != nil {
		s.t.Fatal(err)
	}
	for i := 1; i < len(st.Heap); i++ {
		if a, b := st.Heap[i-1], st.Heap[i]; a.At > b.At || (a.At == b.At && a.Seq >= b.Seq) {
			s.t.Fatalf("saved entries out of (time, seq) order at %d", i)
		}
	}
	var q Queue
	if err := q.Load(st, s); err != nil {
		s.t.Fatal(err)
	}
	s.q = &q
}

// FuzzScheduleStep drives two queues with the same arbitrary
// interleaving of every scheduling form (Schedule, ScheduleBound,
// ScheduleBoundSeq on a reserved ticket, ScheduleVia, ScheduleViaSeq),
// CancelDeferred, Step, RunUntil, and bursts that push the pending
// count past the near array's bound, decoded from the fuzz input. One
// queue is also saved and reloaded whenever the input says so, and its
// Save must fail while a plain handler is pending. It asserts that
// fires follow strictly increasing (Now, FiringSeq) order, that every
// live event fires exactly once and no withdrawn deferral fires, that
// Len matches the live count, that every real event — scheduled
// directly or materialized from a deferral — is counted once in
// ScheduledTotal and fires, and that the round-tripped queue fires
// exactly as the untouched one does.
func FuzzScheduleStep(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 9, 0, 2, 3, 9, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 3, 2})
	f.Add([]byte{1, 0, 1, 1, 2, 0, 0, 7})
	f.Add([]byte{3, 17, 4, 0, 5, 0, 4, 0, 6, 9, 2, 0, 7, 0, 2, 0})
	f.Add([]byte{8, 40, 9, 0, 2, 0, 8, 3, 10, 60, 3, 0, 9, 0, 2, 0})
	f.Add([]byte{4, 0, 6, 0, 4, 0, 5, 0, 9, 0, 7, 1, 10, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := newFuzzSide(t), newFuzzSide(t)
		sides := []*fuzzSide{a, b}
		var (
			nextID    int32
			tickets   []Seq // reserved, not yet used
			deferSeqs []Seq // activation tickets of deferred schedules
			deferID   = map[Seq]int32{}
			cancelled = map[int32]bool{}
		)
		// each applies op to both queues and checks they agree.
		each := func(op func(s *fuzzSide) any) {
			ra, rb := op(a), op(b)
			if ra != rb {
				t.Fatalf("queues diverged: %v vs %v", ra, rb)
			}
		}
		// at returns a legal instant for a reserved ticket: the current
		// instant only while the ticket's position is still ahead.
		at := func(s *fuzzSide, d config.Time, tk Seq) config.Time {
			if d == 0 && uint64(tk) <= s.q.FiringSeq() {
				d = 1
			}
			return s.q.Now() + d
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%11, config.Time(data[i+1])
			switch op {
			case 0, 1, 8: // Schedule, ScheduleBound, burst of ScheduleBound
				n := 1
				if op == 8 {
					n = nearCap + int(arg)%16
				}
				for k := 0; k < n; k++ {
					id, d := nextID, arg+config.Time(k*7%23)
					nextID++
					for _, s := range sides {
						if op == 0 {
							s.q.Schedule(s.q.Now()+d, s.handler)
							s.seqID[s.q.seq] = id
						} else {
							s.q.ScheduleBound(s.q.Now()+d, fuzzBound, s, id, 0)
						}
					}
				}
			case 2: // Step
				each(func(s *fuzzSide) any { return s.q.Step() })
			case 3: // ScheduleVia
				id := nextID
				nextID++
				act := arg % 8
				each(func(s *fuzzSide) any {
					s.q.ScheduleVia(s.q.Now()+act, s.q.Now()+act+arg/8, fuzzBound, s, id, 0)
					return s.q.seq
				})
				deferSeqs = append(deferSeqs, Seq(a.q.seq))
				deferID[Seq(a.q.seq)] = id
			case 4: // ReserveSeq
				each(func(s *fuzzSide) any { return s.q.ReserveSeq() })
				tickets = append(tickets, Seq(a.q.seq))
			case 5, 6: // ScheduleBoundSeq, ScheduleViaSeq on a reserved ticket
				if len(tickets) == 0 {
					break
				}
				k := int(arg) % len(tickets)
				tk := tickets[k]
				tickets = append(tickets[:k], tickets[k+1:]...)
				id := nextID
				nextID++
				if op == 5 {
					for _, s := range sides {
						s.q.ScheduleBoundSeq(at(s, arg%16, tk), tk, fuzzBound, s, id, 0)
					}
				} else {
					for _, s := range sides {
						act := at(s, arg%8, tk)
						s.q.ScheduleViaSeq(act, tk, act+arg/8, fuzzBound, s, id, 0)
					}
					deferSeqs = append(deferSeqs, tk)
					deferID[tk] = id
				}
			case 7: // CancelDeferred
				if len(deferSeqs) == 0 {
					break
				}
				tk := deferSeqs[int(arg)%len(deferSeqs)]
				var ok bool
				each(func(s *fuzzSide) any { ok = s.q.CancelDeferred(tk); return ok })
				if ok {
					if b.fires[deferID[tk]] != 0 {
						t.Fatalf("CancelDeferred removed deferred %d after its target fired", deferID[tk])
					}
					cancelled[deferID[tk]] = true
				}
			case 9: // Save -> Load round trip of one queue
				a.roundTrip()
			case 10: // RunUntil
				each(func(s *fuzzSide) any { s.q.RunUntil(s.q.Now() + arg); return s.q.Now() })
			}
			live := int(nextID) - len(b.log) - len(cancelled)
			for _, s := range sides {
				if s.q.Len() != live {
					t.Fatalf("op %d: Len = %d, want %d live events", op, s.q.Len(), live)
				}
			}
		}
		for _, s := range sides {
			drain(s.q)
			if s.q.Len() != 0 {
				t.Fatalf("drained queue has Len %d", s.q.Len())
			}
			if s.q.Fired() != uint64(len(s.log)) {
				t.Fatalf("Fired = %d, %d callbacks ran", s.q.Fired(), len(s.log))
			}
			// Every real event — scheduled directly or materialized
			// from a deferral — fired.
			if s.q.Fired() != s.q.ScheduledTotal() {
				t.Fatalf("Fired %d != ScheduledTotal %d", s.q.Fired(), s.q.ScheduledTotal())
			}
		}
		counts := b.fires
		for id := int32(0); id < nextID; id++ {
			want := 1
			if cancelled[id] {
				want = 0
			}
			if counts[id] != want {
				t.Fatalf("event %d fired %d times, want %d (withdrawn %v)", id, counts[id], want, cancelled[id])
			}
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("round-tripped queue fired %d events, untouched one %d", len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("fire %d: round-tripped %+v, untouched %+v", i, a.log[i], b.log[i])
			}
		}
		if a.q.Fired() != b.q.Fired() || a.q.ScheduledTotal() != b.q.ScheduledTotal() ||
			a.q.Coalesced() != b.q.Coalesced() || a.q.PoolSize() != b.q.PoolSize() {
			t.Fatal("round-tripped queue's counters differ from the untouched one's")
		}
	})
}
