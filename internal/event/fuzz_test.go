package event

import (
	"fmt"
	"testing"

	"memscale/internal/config"
)

// fuzzSide is one queue driven by FuzzScheduleCancelStep, with the log
// of what fired on it. Every event carries an id: bound callbacks in
// their a argument, plain handlers through the sequence number they
// were scheduled with.
type fuzzSide struct {
	t       *testing.T
	q       *Queue
	handler Handler
	seqID   map[uint64]int32 // plain-handler schedule seq -> id
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
func (s *fuzzSide) Encode(fn Handler, bfn Bound, env any) (string, int32, error) {
	switch {
	case bfn != nil && env == any(s):
		return "bound", 0, nil
	case fn != nil && bfn == nil:
		return "handler", 0, nil
	}
	return "", 0, fmt.Errorf("foreign callback")
}

func (s *fuzzSide) Decode(kind string, _ int32) (Handler, Bound, any, error) {
	switch kind {
	case "bound":
		return nil, fuzzBound, s, nil
	case "handler":
		return s.handler, nil, nil, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown kind %q", kind)
}

// roundTrip replaces the queue with a fresh one loaded from its saved
// state.
func (s *fuzzSide) roundTrip() {
	st, err := s.q.Save(s)
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

// FuzzScheduleCancelStep drives two queues with the same arbitrary
// interleaving of every scheduling form (Schedule, ScheduleBound,
// ScheduleBoundSeq on a reserved ticket, ScheduleVia, ScheduleViaSeq),
// Cancel, CancelDeferred, Step, RunUntil, and bursts that push the
// pending count past the near array's bound, decoded from the fuzz
// input. One queue is also saved and reloaded whenever the input says
// so. It asserts that fires follow strictly increasing (Now, FiringSeq)
// order, that every live event fires exactly once and no cancelled one
// fires, that Len matches the live count, that every real event —
// scheduled directly or materialized from a deferral — is counted once
// in ScheduledTotal and ends up fired or cancelled, that the pool holds
// no leaked slot once drained, and that the round-tripped queue fires exactly as
// the untouched one does.
func FuzzScheduleCancelStep(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 3, 3})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 3, 3, 3})
	f.Add([]byte{1, 0, 2, 0, 1, 1, 3, 0, 0, 7, 2, 0})
	f.Add([]byte{4, 17, 5, 0, 6, 0, 5, 0, 7, 9, 3, 0, 8, 0, 3, 0})
	f.Add([]byte{9, 40, 10, 0, 3, 0, 2, 7, 9, 3, 11, 60, 4, 0, 10, 0, 3, 0})
	f.Add([]byte{5, 0, 7, 0, 5, 0, 6, 0, 10, 0, 8, 1, 11, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := newFuzzSide(t), newFuzzSide(t)
		sides := []*fuzzSide{a, b}
		var (
			nextID    int32
			handles   []Handle
			handleID  []int32
			tickets   []Seq // reserved, not yet used
			deferSeqs []Seq // activation tickets of deferred schedules
			deferID   = map[Seq]int32{}
			cancelled = map[int32]bool{}
			// realCancelled counts Cancel calls that removed a real
			// event; a cancelled deferral never became one.
			realCancelled uint64
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
			op, arg := data[i]%12, config.Time(data[i+1])
			switch op {
			case 0, 1, 9: // Schedule, ScheduleBound, burst of ScheduleBound
				n := 1
				if op == 9 {
					n = nearCap + int(arg)%16
				}
				for k := 0; k < n; k++ {
					id, d := nextID, arg+config.Time(k*7%23)
					nextID++
					var hs []Handle
					for _, s := range sides {
						if op == 0 {
							hs = append(hs, s.q.Schedule(s.q.Now()+d, s.handler))
							s.seqID[s.q.seq] = id
						} else {
							hs = append(hs, s.q.ScheduleBound(s.q.Now()+d, fuzzBound, s, id, 0))
						}
					}
					if hs[0] != hs[1] {
						t.Fatalf("handles diverged: %v vs %v", hs[0], hs[1])
					}
					handles, handleID = append(handles, hs[0]), append(handleID, id)
				}
			case 2: // Cancel
				if len(handles) == 0 {
					break
				}
				k := int(arg) % len(handles)
				h := handles[k]
				var ok bool
				each(func(s *fuzzSide) any {
					pending := s.q.Pending(h)
					if ok = s.q.Cancel(h); ok != pending {
						t.Fatalf("Cancel = %v for pending = %v", ok, pending)
					}
					if s.q.Pending(h) {
						t.Fatal("cancelled handle reports pending")
					}
					return ok
				})
				if ok {
					cancelled[handleID[k]] = true
					realCancelled++
				}
			case 3: // Step
				each(func(s *fuzzSide) any { return s.q.Step() })
			case 4: // ScheduleVia
				id := nextID
				nextID++
				act := arg % 8
				each(func(s *fuzzSide) any {
					s.q.ScheduleVia(s.q.Now()+act, s.q.Now()+act+arg/8, fuzzBound, s, id, 0)
					return s.q.seq
				})
				deferSeqs = append(deferSeqs, Seq(a.q.seq))
				deferID[Seq(a.q.seq)] = id
			case 5: // ReserveSeq
				each(func(s *fuzzSide) any { return s.q.ReserveSeq() })
				tickets = append(tickets, Seq(a.q.seq))
			case 6, 7: // ScheduleBoundSeq, ScheduleViaSeq on a reserved ticket
				if len(tickets) == 0 {
					break
				}
				k := int(arg) % len(tickets)
				tk := tickets[k]
				tickets = append(tickets[:k], tickets[k+1:]...)
				id := nextID
				nextID++
				if op == 6 {
					var hs []Handle
					for _, s := range sides {
						hs = append(hs, s.q.ScheduleBoundSeq(at(s, arg%16, tk), tk, fuzzBound, s, id, 0))
					}
					if hs[0] != hs[1] {
						t.Fatalf("handles diverged: %v vs %v", hs[0], hs[1])
					}
					handles, handleID = append(handles, hs[0]), append(handleID, id)
				} else {
					for _, s := range sides {
						act := at(s, arg%8, tk)
						s.q.ScheduleViaSeq(act, tk, act+arg/8, fuzzBound, s, id, 0)
					}
					deferSeqs = append(deferSeqs, tk)
					deferID[tk] = id
				}
			case 8: // CancelDeferred
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
			case 10: // Save -> Load round trip of one queue
				a.roundTrip()
			case 11: // RunUntil
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
			s.q.Run(0)
			if s.q.Len() != 0 {
				t.Fatalf("drained queue has Len %d", s.q.Len())
			}
			if s.q.FreeNodes() != s.q.PoolSize() {
				t.Fatalf("pool leak: %d slots, %d free", s.q.PoolSize(), s.q.FreeNodes())
			}
			if s.q.Fired() != uint64(len(s.log)) {
				t.Fatalf("Fired = %d, %d callbacks ran", s.q.Fired(), len(s.log))
			}
			// Every real event — scheduled directly or materialized
			// from a deferral — either fired or was cancelled.
			if s.q.Fired()+realCancelled != s.q.ScheduledTotal() {
				t.Fatalf("Fired %d + cancelled %d != ScheduledTotal %d",
					s.q.Fired(), realCancelled, s.q.ScheduledTotal())
			}
		}
		counts := b.fires
		for id := int32(0); id < nextID; id++ {
			want := 1
			if cancelled[id] {
				want = 0
			}
			if counts[id] != want {
				t.Fatalf("event %d fired %d times, want %d (cancelled %v)", id, counts[id], want, cancelled[id])
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
