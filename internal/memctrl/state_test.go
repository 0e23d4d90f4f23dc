package memctrl

import (
	"encoding/json"
	"strings"
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
)

// Two small geometries keep the saved images to a few kilobytes, which
// the fuzzer can mutate and minimize quickly.

// oneChannel is one channel of one dual-rank DIMM and two cores.
func oneChannel(c *config.Config) {
	c.Channels = 1
	c.DIMMsPerChannel = 1
	c.Cores = 2
}

// fastPDPair is two channels of one dual-rank DIMM of four-bank
// ranks, four cores, under fast powerdown.
func fastPDPair(c *config.Config) {
	c.Channels = 2
	c.DIMMsPerChannel = 1
	c.BanksPerRank = 4
	c.Cores = 4
	c.Powerdown = config.PowerdownFast
}

// readDone is the completion callback of every read the image tests
// issue and restore.
func readDone(config.Time) {}

// doneFor rebinds restored reads of a cfg-sized machine.
func doneFor(cfg *config.Config) func(core int) func(config.Time) {
	return func(core int) func(config.Time) {
		if core >= cfg.Cores {
			return nil
		}
		return readDone
	}
}

// queuedImage saves a controller stopped mid-run, with reads and
// writebacks queued behind dispatched requests on several banks.
func queuedImage(tb testing.TB, mutate func(*config.Config)) (*rig, *ControllerState) {
	tb.Helper()
	r := newRig(mutate)
	for i := 0; i < 40; i++ {
		var done func(config.Time)
		write := i%3 == 0
		if !write {
			done = readDone
		}
		line := r.line(i%r.cfg.Channels, i%2, i%4, 10+i%5, 0)
		r.c.Enqueue(0, line, write, i%r.cfg.Cores, done)
	}
	// Stop once a request is through the bus and a dispatched one still
	// has reads and writebacks queued behind it.
	busy := func() bool {
		for _, ch := range r.c.channels {
			for b := range ch.banks {
				if bk := &ch.banks[b]; bk.dispatched && bk.queue.Len() > 0 && bk.wb.Len() > 0 {
					return true
				}
			}
		}
		return false
	}
	for r.c.counters.Reads == 0 || !busy() {
		if !r.q.Step() || r.q.Now() > config.Microsecond {
			tb.Fatal("no queued work behind a dispatched request")
		}
	}
	tbl := NewRequestTable()
	st := r.c.Save(tbl)
	st.Requests = tbl.States()
	return r, st
}

// decodeImage round-trips st through its JSON form, as a checkpoint
// carries it.
func decodeImage(tb testing.TB, raw []byte) *ControllerState {
	tb.Helper()
	var st ControllerState
	if err := json.Unmarshal(raw, &st); err != nil {
		tb.Fatal(err)
	}
	return &st
}

// TestLoadChecksRequestCounts: the image's request counts are derived
// from the bank records, so Load rejects an image in which any of them
// is raised or lowered, naming the field, and accepts the unedited one.
func TestLoadChecksRequestCounts(t *testing.T) {
	r, st := queuedImage(t, nil)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	load := func(st *ControllerState) error {
		_, err := New(&r.cfg, &event.Queue{}).Load(st, doneFor(&r.cfg))
		return err
	}
	if err := load(decodeImage(t, raw)); err != nil {
		t.Fatalf("unedited image: %v", err)
	}

	// firstBusy returns the first positive entry of a field, so
	// lowering it stays a count the simulator could hold elsewhere.
	firstBusy := func(field string, vals []*int) *int {
		for _, v := range vals {
			if *v > 0 {
				return v
			}
		}
		t.Fatalf("saved image has no positive %s", field)
		return nil
	}
	for _, tc := range []struct {
		field string
		at    func(st *ControllerState) []*int
	}{
		{"outstanding", func(st *ControllerState) (out []*int) {
			for ch := range st.Channels {
				for b := range st.Channels[ch].Outstanding {
					out = append(out, &st.Channels[ch].Outstanding[b])
				}
			}
			return out
		}},
		{"pending", func(st *ControllerState) (out []*int) {
			for ch := range st.Pending {
				for r := range st.Pending[ch] {
					out = append(out, &st.Pending[ch][r])
				}
			}
			return out
		}},
		{"dispatched", func(st *ControllerState) (out []*int) {
			for ch := range st.Dispatched {
				for r := range st.Dispatched[ch] {
					out = append(out, &st.Dispatched[ch][r])
				}
			}
			return out
		}},
		{"wb_count", func(st *ControllerState) (out []*int) {
			for ch := range st.Channels {
				out = append(out, &st.Channels[ch].WBCount)
			}
			return out
		}},
	} {
		for _, delta := range []int{+1, -1} {
			img := decodeImage(t, raw)
			*firstBusy(tc.field, tc.at(img)) += delta
			err := load(img)
			if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
				t.Errorf("%s %+d: err = %v, want a rejection naming %s", tc.field, delta, err, tc.field)
			}
		}
	}
}

// TestSaveLoadQueuedRoundTrip: an image with queued and dispatched
// requests restores a controller whose own image is the same, on the
// default machine and both small geometries.
func TestSaveLoadQueuedRoundTrip(t *testing.T) {
	for _, mutate := range []func(*config.Config){nil, oneChannel, fastPDPair} {
		r, st := queuedImage(t, mutate)
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		c := New(&r.cfg, &event.Queue{})
		if _, err := c.Load(decodeImage(t, raw), doneFor(&r.cfg)); err != nil {
			t.Fatal(err)
		}
		tbl := NewRequestTable()
		again := c.Save(tbl)
		again.Requests = tbl.States()
		raw2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw2) != string(raw) {
			t.Errorf("%d channels: restored image differs from the saved one", r.cfg.Channels)
		}
		if n := c.QueuedRequests(); n == 0 || n != r.c.QueuedRequests() {
			t.Errorf("%d channels: restored %d queued requests, saved %d", r.cfg.Channels, n, r.c.QueuedRequests())
		}
	}
}
