package memctrl

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"memscale/internal/config"
	"memscale/internal/dram"
	"memscale/internal/event"
	"memscale/internal/trace"
)

// TestFrequencyChangeUnderTraffic drives random traffic across a
// frequency switch and checks nothing is lost or double-counted.
func TestFrequencyChangeUnderTraffic(t *testing.T) {
	r := newRig(nil)
	rng := trace.NewRNG(7)
	const n = 600
	completed := 0
	for i := 0; i < n; i++ {
		at := config.Time(i) * 30 * config.Nanosecond
		line := rng.Uint64() % r.mapper.Lines()
		r.c.Enqueue(at, line, rng.Intn(6) == 0, rng.Intn(16), func(config.Time) { completed++ })
	}
	// Let traffic start, then switch mid-stream.
	r.q.RunUntil(5 * config.Microsecond)
	r.c.FlushInterval(r.q.Now())
	r.c.SetBusFrequency(r.q.Now(), config.Freq333)
	r.drain()
	ctr := r.c.Counters()
	if got := ctr.Reads + ctr.Writebacks; got != n {
		t.Fatalf("served %d of %d requests across the relock", got, n)
	}
	if r.c.BusFreq() != config.Freq333 {
		t.Errorf("bus frequency = %v", r.c.BusFreq())
	}
	iv := r.c.FlushInterval(r.q.Now())
	elapsed := r.q.Now() - 5*config.Microsecond
	if iv.DRAMTotal().Total() != config.Time(r.cfg.TotalRanks())*elapsed {
		t.Errorf("rank accounting lost time across relock: %v vs %v",
			iv.DRAMTotal().Total(), config.Time(r.cfg.TotalRanks())*elapsed)
	}
}

// TestRepeatedFrequencyChanges walks the whole ladder under light
// traffic.
func TestRepeatedFrequencyChanges(t *testing.T) {
	r := newRig(nil)
	rng := trace.NewRNG(11)
	served := 0
	for _, f := range config.BusFrequencies[1:] {
		now := r.q.Now()
		for i := 0; i < 20; i++ {
			r.c.Enqueue(now, rng.Uint64()%r.mapper.Lines(), false, 0, func(config.Time) { served++ })
		}
		r.q.RunUntil(now + 100*config.Microsecond)
		r.c.FlushInterval(r.q.Now())
		r.c.SetBusFrequency(r.q.Now(), f)
		r.q.RunUntil(r.q.Now() + 10*config.Microsecond)
	}
	r.drain()
	if served != 20*len(config.BusFrequencies[1:]) {
		t.Errorf("served %d requests", served)
	}
	if r.c.BusFreq() != config.Freq200 {
		t.Errorf("final frequency %v, want 200 MHz", r.c.BusFreq())
	}
}

// TestChannelOutstandingCounter checks CTO semantics: arrivals to a
// saturated channel see the bus queue.
func TestChannelOutstandingCounter(t *testing.T) {
	r := newRig(nil)
	// 8 simultaneous requests to 8 banks of channel 0: their bursts
	// serialize, so late bus arrivals queue.
	for b := 0; b < 8; b++ {
		r.read(0, r.line(0, 0, b, 5, 0), b)
	}
	r.drain()
	ctr := r.c.Counters()
	// All arrived at t=0 before anything was on the bus queue, so CTO
	// counts 0 — the queueing shows up for later arrivals.
	if ctr.CTO != 0 {
		t.Errorf("CTO = %d for simultaneous arrivals", ctr.CTO)
	}
	// A request arriving while bursts drain must see channel work.
	tm := r.c.Timing()
	r.read(tm.MC+tm.TRCD+tm.TCL+2*tm.Burst/2, r.line(0, 1, 0, 5, 0), 0)
	ctr2 := r.c.Counters()
	if ctr2.CTO == 0 {
		t.Error("late arrival saw an empty channel despite queued bursts")
	}
	r.drain()
}

func TestRowHitFractionCounter(t *testing.T) {
	r := newRig(nil)
	line0 := r.line(0, 0, 0, 10, 0)
	line1 := r.line(0, 0, 0, 10, 1)
	r.read(0, line0, 0)
	r.read(0, line1, 0)
	r.drain()
	ctr := r.c.Counters()
	if got := ctr.RowHitFraction(); got != 0.5 {
		t.Errorf("RowHitFraction = %g, want 0.5", got)
	}
	var empty Counters
	if empty.RowHitFraction() != 0 || empty.BankQueueDepth() != 0 || empty.ChannelQueueDepth() != 0 {
		t.Error("empty counters must yield zero ratios")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{TLM: []uint64{1, 2}, BTO: 3, BTC: 4, RBHC: 5, Reads: 6}
	b := Counters{TLM: []uint64{10, 20}, BTO: 30, BTC: 40, RBHC: 50, Reads: 60}
	c := a.Add(b)
	if c.TLM[0] != 11 || c.TLM[1] != 22 || c.BTO != 33 || c.BTC != 44 || c.RBHC != 55 || c.Reads != 66 {
		t.Errorf("Add result: %+v", c)
	}
	// Receiver unchanged.
	if a.BTO != 3 || a.TLM[0] != 1 {
		t.Error("Add mutated its receiver")
	}
}

// TestDecoupledDevFreqInInterval: with Decoupled DIMMs the interval
// carries the channel's bus frequency, and the device clock the power
// model prices background energy at is the low decoupled one.
func TestDecoupledDevFreqInInterval(t *testing.T) {
	r := newRig(func(c *config.Config) { c.DecoupledDevFreq = config.Freq400 })
	r.q.RunUntil(50 * config.Microsecond)
	iv := r.c.FlushInterval(r.q.Now())
	if dev := r.cfg.DevFreq(iv.BusFreq); dev != config.Freq400 || iv.BusFreq != config.Freq800 {
		t.Errorf("interval freqs: bus %v dev %v", iv.BusFreq, dev)
	}
}

// TestPowerdownAndRefreshInterleave stresses PD entry around refresh
// windows for a long idle stretch.
func TestPowerdownAndRefreshInterleave(t *testing.T) {
	r := newRig(func(c *config.Config) { c.Powerdown = config.PowerdownFast })
	r.q.RunUntil(config.Millisecond)
	iv := r.c.FlushInterval(r.q.Now())
	// Each rank refreshes ~128 times per ms.
	perRank := float64(iv.DRAMTotal().Refreshes) / float64(r.cfg.TotalRanks())
	if perRank < 120 || perRank > 136 {
		t.Errorf("refreshes per rank per ms = %.0f, want ~128", perRank)
	}
	// Between refreshes the rank returns to powerdown.
	if frac := iv.DRAMTotal().PrechargePDFraction(); frac < 0.9 {
		t.Errorf("idle PD fraction = %.2f, want > 0.9", frac)
	}
	if iv.DRAMTotal().PDExits == 0 {
		t.Error("refreshes out of PD must count exits")
	}
}

// TestTimingSwapPropagatesToRanks verifies the shared-timing pointer
// mechanism: after a relock, rank service uses the new periods.
func TestTimingSwapPropagatesToRanks(t *testing.T) {
	r := newRig(nil)
	r.c.FlushInterval(0)
	r.c.SetBusFrequency(0, config.Freq200)
	r.q.RunUntil(10 * config.Microsecond)
	start := r.q.Now()
	done := r.read(start, r.line(0, 0, 0, 3, 0), 0)
	r.drain()
	tm := dram.Resolve(r.cfg.Timing, config.Freq200, config.Freq200)
	want := start + tm.MC + tm.TRCD + tm.TCL + tm.Burst
	if *done != want {
		t.Errorf("post-relock read at %v, want %v", *done, want)
	}
}

// TestWritebackOnlySaturation: a writeback storm alone must drain and
// account bursts as writes.
func TestWritebackOnlySaturation(t *testing.T) {
	r := newRig(nil)
	rng := trace.NewRNG(3)
	const n = 500
	for i := 0; i < n; i++ {
		r.c.Enqueue(config.Time(i)*10*config.Nanosecond, rng.Uint64()%r.mapper.Lines(), true, 0, nil)
	}
	r.drain()
	ctr := r.c.Counters()
	if ctr.Writebacks != n {
		t.Fatalf("drained %d of %d writebacks", ctr.Writebacks, n)
	}
	iv := r.c.FlushInterval(r.q.Now())
	if iv.DRAMTotal().WriteBurst == 0 || iv.DRAMTotal().ReadBurst != 0 {
		t.Errorf("burst accounting: read %v write %v", iv.DRAMTotal().ReadBurst, iv.DRAMTotal().WriteBurst)
	}
}

// TestRelockPenaltyValue checks the Section 4.1 constant: 512 cycles
// plus 28 ns at the new frequency.
func TestRelockPenaltyValue(t *testing.T) {
	r := newRig(nil)
	cases := map[config.FreqMHz]config.Time{
		config.Freq800: config.Freq800.Cycles(512) + 28*config.Nanosecond,
		config.Freq200: config.Freq200.Cycles(512) + 28*config.Nanosecond,
	}
	for f, want := range cases {
		if got := r.c.RelockPenalty(f); got != want {
			t.Errorf("RelockPenalty(%v) = %v, want %v", f, got, want)
		}
	}
	// At 200 MHz: 512 * 5 ns + 28 ns = 2.588 us — microseconds, as the
	// paper says ("< 1 us" at high frequency, negligible vs 5 ms).
	if p := r.c.RelockPenalty(config.Freq800); p > 1*config.Microsecond {
		t.Errorf("relock at nominal = %v, want < 1 us", p)
	}
}

func TestInvalidFrequencyPanics(t *testing.T) {
	r := newRig(nil)
	r.c.FlushInterval(0)
	defer func() {
		if recover() == nil {
			t.Error("off-ladder frequency must panic")
		}
	}()
	r.c.SetBusFrequency(0, 512)
}

func BenchmarkControllerThroughput(b *testing.B) {
	rig := newRig(nil)
	rng := trace.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		at := rig.q.Now()
		rig.c.Enqueue(at, rng.Uint64()%rig.mapper.Lines(), false, i%16, func(config.Time) { completed++ })
		if rig.c.QueuedRequests() > 64 {
			rig.q.RunUntil(rig.q.Now() + config.Microsecond)
		}
	}
	rig.drain()
}

// TestLoadRebuildsDeferralMask checks that a restored controller
// rebuilds the per-rank deferred-close bitmask from the saved DefAts,
// and that Load rejects a DefPrech count or a bank's PrechDeferred flag
// that disagrees with them.
func TestLoadRebuildsDeferralMask(t *testing.T) {
	r := newRig(nil)
	r.c.SetQuiesceHorizon(config.Second)
	for bank := 0; bank < 3; bank++ {
		r.c.Enqueue(0, r.line(0, 0, bank, 10, 0), true, 0, nil)
	}
	mask := func() uint64 { return r.c.ranks[0].defMask }
	for r.q.Step() && mask()&(mask()-1) == 0 {
	}
	if mask()&(mask()-1) == 0 {
		t.Fatalf("no two deferred closes on rank 0 (mask %b)", mask())
	}
	tbl := NewRequestTable()
	st := r.c.Save(tbl)
	st.Requests = tbl.States()
	doneFor := func(int) func(config.Time) { return nil }

	c := New(&r.cfg, &event.Queue{})
	if _, err := c.Load(st, doneFor); err != nil {
		t.Fatal(err)
	}
	for g := range c.ranks {
		if got, want := c.ranks[g].defMask, r.c.ranks[g].defMask; got != want {
			t.Fatalf("rank %d: restored mask %b, saved %b", g, got, want)
		}
	}

	st.DefPrech[0][0]++
	if _, err := New(&r.cfg, &event.Queue{}).Load(st, doneFor); err == nil {
		t.Fatal("Load accepted a DefPrech count that disagrees with DefAts")
	}
	st.DefPrech[0][0]--

	// A bank's prech_deferred flag is derived from its DefAts entry.
	for b := range st.Channels[0].Banks {
		st.Channels[0].Banks[b].PrechDeferred = !st.Channels[0].Banks[b].PrechDeferred
		_, err := New(&r.cfg, &event.Queue{}).Load(st, doneFor)
		if err == nil || !strings.Contains(err.Error(), "prech_deferred") {
			t.Fatalf("bank %d: flipped prech_deferred: err = %v", b, err)
		}
		st.Channels[0].Banks[b].PrechDeferred = !st.Channels[0].Banks[b].PrechDeferred
	}
}

// TestTerminationChargedAtFlush checks the flush-time termination
// charge on a 4-rank channel: over two FlushInterval windows, with the
// controller saved and restored mid-way through the second, each
// rank's TermBurst equals the burst time the channel's other ranks
// drove, counted here from the requests the test issued.
func TestTerminationChargedAtFlush(t *testing.T) {
	r := newRig(nil)
	if r.cfg.RanksPerChannel() != 4 {
		t.Fatalf("default machine has %d ranks per channel, want 4", r.cfg.RanksPerChannel())
	}
	burst := r.c.Timing().Burst
	const window = 400 * config.Microsecond

	// issue enqueues one window's traffic at start on channels 0 and 1
	// (rank weights 1:2:3:4, every third request a writeback) and
	// returns the requests per (channel, rank).
	issue := func(c *Controller, start config.Time, seed int) (n [2][4]config.Time) {
		i := 0
		for rank := 0; rank < 4; rank++ {
			for k := 0; k <= rank; k++ {
				for ch := 0; ch < 2; ch++ {
					line := r.line(ch, rank, (i+seed)%8, 10+i%5, i%4)
					c.Enqueue(start, line, i%3 == 0, i%16, nil)
					n[ch][rank]++
					i++
				}
			}
		}
		return n
	}
	// perRank reads each rank's flushed account at now from a restored
	// copy, leaving c itself untouched.
	perRank := func(c *Controller, now config.Time) [2][4]dram.Account {
		tbl := NewRequestTable()
		st := c.Save(tbl)
		st.Requests = tbl.States()
		cp := New(&r.cfg, &event.Queue{})
		if _, err := cp.Load(st, func(int) func(config.Time) { return nil }); err != nil {
			t.Fatal(err)
		}
		var out [2][4]dram.Account
		for ch := range out {
			for rank := range out[ch] {
				out[ch][rank] = cp.flushRank(now, ch, rank, cp.channels[ch].busBusy)
			}
		}
		return out
	}
	check := func(w int, c *Controller, now config.Time, n [2][4]config.Time) {
		accts := perRank(c, now)
		iv := c.FlushInterval(now)
		for ch := range n {
			var total config.Time
			for _, k := range n[ch] {
				total += k
			}
			var sum config.Time
			for rank, k := range n[ch] {
				a := accts[ch][rank]
				if own := a.ReadBurst + a.WriteBurst; own != k*burst {
					t.Errorf("window %d ch %d rank %d: drove the bus %v, want %v", w, ch, rank, own, k*burst)
				}
				if want := (total - k) * burst; a.TermBurst != want {
					t.Errorf("window %d ch %d rank %d: TermBurst %v, want %v (others' bursts)", w, ch, rank, a.TermBurst, want)
				}
				sum += (total - k) * burst
			}
			if got := iv.Channels[ch].DRAM.TermBurst; got != sum {
				t.Errorf("window %d ch %d: flushed TermBurst %v, want %v", w, ch, got, sum)
			}
			if iv.Channels[ch].Busy != total*burst {
				t.Errorf("window %d ch %d: busy %v, want %v", w, ch, iv.Channels[ch].Busy, total*burst)
			}
		}
		if got := iv.Channels[2].DRAM.TermBurst + iv.Channels[3].DRAM.TermBurst; got != 0 {
			t.Errorf("window %d: idle channels charged %v of termination", w, got)
		}
	}

	n1 := issue(r.c, 0, 0)
	r.q.RunUntil(window)
	check(1, r.c, window, n1)

	// Second window: save and restore the controller and its queue
	// while the window's requests are in flight, and inflate every
	// saved rank's TermBurst (containers written when termination was
	// charged per burst carry a partial sum there); the flush must
	// derive the charge afresh.
	n2 := issue(r.c, window, 3)
	r.q.RunUntil(window + 40*config.Nanosecond)
	if r.c.QueuedRequests() == 0 {
		t.Fatal("no request in flight at the save point")
	}
	tbl := NewRequestTable()
	st := r.c.Save(tbl)
	reg := event.NewRegistry()
	r.c.RegisterEvents(reg, tbl.EncodeEnv, nil)
	qs, err := r.q.Save(reg)
	if err != nil {
		t.Fatal(err)
	}
	st.Requests = tbl.States()
	for ch := range st.Ranks {
		for rank := range st.Ranks[ch] {
			st.Ranks[ch][rank].Acct.TermBurst += 12345
		}
	}
	q := &event.Queue{}
	c := New(&r.cfg, q)
	reqs, err := c.Load(st, func(int) func(config.Time) { return nil })
	if err != nil {
		t.Fatal(err)
	}
	reg = event.NewRegistry()
	c.RegisterEvents(reg, nil, reqs)
	if err := q.Load(qs, reg); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2 * window)
	if c.QueuedRequests() != 0 {
		t.Fatalf("%d requests still queued at the second flush", c.QueuedRequests())
	}
	check(2, c, 2*window, n2)
}

// savedRig returns a rig with traffic through its counters and its
// saved image.
func savedRig(t *testing.T) (*rig, *ControllerState) {
	t.Helper()
	r := newRig(nil)
	for i := 0; i < 24; i++ {
		r.c.Enqueue(0, r.line(i%4, i%3, i%8, 10+i%2, 0), i%5 == 0, i%16, nil)
	}
	r.drain()
	tbl := NewRequestTable()
	st := r.c.Save(tbl)
	st.Requests = tbl.States()
	if st.Counters.Reads == 0 || st.Counters.Writebacks == 0 {
		t.Fatalf("no traffic in the saved counters: %+v", st.Counters)
	}
	return r, st
}

// TestLoadRejectsForeignCoreCount: an image whose TLM is sized for
// another core count does not load.
func TestLoadRejectsForeignCoreCount(t *testing.T) {
	r, st := savedRig(t)
	doneFor := func(int) func(config.Time) { return nil }
	for _, n := range []int{r.cfg.Cores - 1, r.cfg.Cores + 1} {
		st.Counters.TLM = make([]uint64, n)
		_, err := New(&r.cfg, &event.Queue{}).Load(st, doneFor)
		if err == nil || !strings.Contains(err.Error(), "counters sized for") {
			t.Errorf("TLM for %d cores on a %d-core controller: err = %v", n, r.cfg.Cores, err)
		}
	}
}

// TestLoadLegacyCounterImage: images written before the counters
// became one controller-wide set also carry a per-channel copy under
// "PerChannel". Load ignores it and restores the controller-wide set.
func TestLoadLegacyCounterImage(t *testing.T) {
	r, st := savedRig(t)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var img, ctr map[string]json.RawMessage
	if err := json.Unmarshal(raw, &img); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(img["counters"], &ctr); err != nil {
		t.Fatal(err)
	}
	// Every legacy set is a copy of the aggregate, so a loader that
	// summed them would restore Channels times the counts.
	legacy := make([]Counters, r.cfg.Channels)
	for ch := range legacy {
		legacy[ch] = st.Counters
	}
	if ctr["PerChannel"], err = json.Marshal(legacy); err != nil {
		t.Fatal(err)
	}
	if img["counters"], err = json.Marshal(ctr); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(img); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"PerChannel":[{"TLM":[`) {
		t.Fatalf("image carries no legacy per-channel sets: %.300s", raw)
	}
	var old ControllerState
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	c := New(&r.cfg, &event.Queue{})
	if _, err := c.Load(&old, func(int) func(config.Time) { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Counters(), r.c.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored counters = %+v, want %+v", got, want)
	}
}

// legacyPointImage rewrites a saved image into the schema 1.2 shape:
// no controller operating point, and each channel carrying its own
// copy, set by point(ch) to bus_freq, dev_freq, relocking and
// relock_until.
func legacyPointImage(t *testing.T, st *ControllerState, point func(ch int) map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var img map[string]json.RawMessage
	var chans []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &img); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(img["channels"], &chans); err != nil {
		t.Fatal(err)
	}
	if _, ok := img["bus_freq"]; !ok || strings.Contains(string(raw), `"dev_freq"`) {
		t.Fatalf("saved image does not carry one operating point: %.300s", raw)
	}
	delete(img, "bus_freq")
	delete(img, "relocking")
	delete(img, "relock_until")
	for ch := range chans {
		for k, v := range point(ch) {
			if chans[ch][k], err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if img["channels"], err = json.Marshal(chans); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(img); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLoadLegacyOperatingPoint: an image of schema 1.2 or earlier
// carries the operating point in every channel. Load accepts it only
// when every copy agrees and each device clock is the one the
// configuration derives, and then restores the state the one-point
// image restores.
func TestLoadLegacyOperatingPoint(t *testing.T) {
	r := newRig(func(c *config.Config) { c.DecoupledDevFreq = config.Freq200 })
	r.q.RunUntil(20 * config.Microsecond)
	now := r.q.Now()
	r.c.FlushInterval(now)
	until := r.c.SetBusFrequency(now, config.Freq400)
	st := r.c.Save(NewRequestTable()) // mid-relock
	if !st.Relocking || st.RelockUntil != until || st.BusFreq != config.Freq800 {
		t.Fatalf("saved point: bus %v relocking %v until %v", st.BusFreq, st.Relocking, st.RelockUntil)
	}
	doneFor := func(int) func(config.Time) { return nil }
	load := func(raw []byte) (*Controller, error) {
		var img ControllerState
		if err := json.Unmarshal(raw, &img); err != nil {
			t.Fatal(err)
		}
		c := New(&r.cfg, &event.Queue{})
		_, err := c.Load(&img, doneFor)
		return c, err
	}
	point := func(bus, dev config.FreqMHz) map[string]any {
		return map[string]any{"bus_freq": bus, "dev_freq": dev, "relocking": true, "relock_until": until}
	}

	want := New(&r.cfg, &event.Queue{})
	if _, err := want.Load(st, doneFor); err != nil {
		t.Fatal(err)
	}
	c, err := load(legacyPointImage(t, st, func(int) map[string]any { return point(config.Freq800, config.Freq200) }))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Save(NewRequestTable()), want.Save(NewRequestTable()); !reflect.DeepEqual(got, want) {
		t.Errorf("legacy image restored %+v, one-point image %+v", got, want)
	}
	if c.timing != want.timing || !c.relocking {
		t.Errorf("legacy image timing %+v relocking %v, want %+v relocking", c.timing, c.relocking, want.timing)
	}

	for _, tc := range []struct {
		name  string
		point func(ch int) map[string]any
		err   string
	}{
		{"channels disagree", func(ch int) map[string]any {
			if ch == 1 {
				return point(config.Freq333, config.Freq200)
			}
			return point(config.Freq800, config.Freq200)
		}, "disagrees with channel 0's"},
		{"device clock is the bus clock", func(int) map[string]any { return point(config.Freq800, config.Freq800) }, "device clock"},
		{"device clock zero", func(int) map[string]any { return point(config.Freq800, 0) }, "device clock"},
		{"bus off the ladder", func(int) map[string]any { return point(123, config.Freq200) }, "not on the ladder"},
	} {
		if _, err := load(legacyPointImage(t, st, tc.point)); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}
