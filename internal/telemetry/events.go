package telemetry

import (
	"encoding/json"
	"fmt"

	"memscale/internal/config"
)

// EventKind classifies one entry of the structured event stream.
type EventKind uint8

// Event kinds.
const (
	// EvFreqTransition: a channel relock. A = from MHz, B = to MHz,
	// C = relock penalty (ps).
	EvFreqTransition EventKind = iota + 1

	// EvPowerdownEnter: a rank dropped CKE. A = 1 for slow-exit
	// (DLL off), 0 for fast-exit.
	EvPowerdownEnter

	// EvPowerdownExit: a rank raised CKE to serve a request.
	EvPowerdownExit

	// EvRefresh: a rank refresh was issued. C = tRFC window (ps).
	EvRefresh

	// EvSlack: one core's slack account was updated at an epoch
	// boundary. F1 = slack delta (s, credit positive), F2 = new
	// accumulated slack (s).
	EvSlack

	// EvDecision: one governor decision, completed at epoch end.
	// A = frequency in force during profiling (MHz), B = chosen
	// frequency (MHz), F1 = model-predicted mean CPI at the chosen
	// frequency (0 when the governor exposes no prediction), F2 =
	// measured mean CPI over the epoch.
	EvDecision
)

var eventKindNames = map[EventKind]string{
	EvFreqTransition: "freq_transition",
	EvPowerdownEnter: "powerdown_enter",
	EvPowerdownExit:  "powerdown_exit",
	EvRefresh:        "refresh",
	EvSlack:          "slack",
	EvDecision:       "decision",
}

// String returns the kind's stable wire name.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a wire name back into a kind.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range eventKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one entry of the structured trace. The payload fields
// (A, B, C, F1, F2) are interpreted per kind — see the kind constants.
// Keeping the payload flat and numeric makes the ring buffer a single
// allocation and every push a copy.
type Event struct {
	Kind  EventKind   `json:"kind"`
	Time  config.Time `json:"t_ps"`
	Epoch int         `json:"epoch"`

	// Location, -1 where not applicable.
	Channel int `json:"ch"`
	Rank    int `json:"rank"`
	Core    int `json:"core"`

	A  int64   `json:"a,omitempty"`
	B  int64   `json:"b,omitempty"`
	C  int64   `json:"c,omitempty"`
	F1 float64 `json:"f1,omitempty"`
	F2 float64 `json:"f2,omitempty"`
}

// eventRing is a fixed-capacity drop-oldest ring buffer: when full,
// each push evicts the oldest event and counts it as dropped.
type eventRing struct {
	buf     []Event
	head    int // index of the oldest event
	n       int // events currently stored
	dropped uint64
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{buf: make([]Event, capacity)}
}

// push appends ev, evicting the oldest event when full.
func (r *eventRing) push(ev Event) {
	if r.n == len(r.buf) {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ev
	r.n++
}

// drain returns the buffered events in arrival order and empties the
// ring.
func (r *eventRing) drain() []Event {
	if r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.head, r.n = 0, 0
	return out
}
