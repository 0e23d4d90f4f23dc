package memctrl

import (
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

// TestDecoupledBackgroundPower: with Decoupled DIMMs the device clock
// is low, so the rank background energy must match the device
// frequency, not the channel's.
func TestDecoupledDevFreqInInterval(t *testing.T) {
	r := newRig(func(c *config.Config) { c.DecoupledDevFreq = config.Freq400 })
	r.q.RunUntil(50 * config.Microsecond)
	iv := r.c.FlushInterval(r.q.Now())
	if iv.Channels[0].DevFreq != config.Freq400 || iv.Channels[0].BusFreq != config.Freq800 {
		t.Errorf("interval freqs: bus %v dev %v", iv.Channels[0].BusFreq, iv.Channels[0].DevFreq)
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
	cfg := config.Default()
	rig := newRig(nil)
	_ = cfg
	rng := trace.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		at := rig.q.Now()
		rig.c.Enqueue(at, rng.Uint64()%rig.mapper.Lines(), false, i%16, func(config.Time) { completed++ })
		if rig.c.QueuedRequests() > 64 {
			next, _ := rig.q.NextAt()
			rig.q.RunUntil(next + config.Microsecond)
		}
	}
	rig.drain()
}

// TestLoadRebuildsDeferralMask checks that a restored controller
// rebuilds the per-rank deferred-close bitmask from the saved DefAts,
// and that Load rejects a DefPrech count that disagrees with them.
func TestLoadRebuildsDeferralMask(t *testing.T) {
	r := newRig(nil)
	r.c.SetQuiesceHorizon(config.Second)
	for bank := 0; bank < 3; bank++ {
		r.c.Enqueue(0, r.line(0, 0, bank, 10, 0), true, 0, nil)
	}
	for r.q.Step() && r.c.defMask[0]&(r.c.defMask[0]-1) == 0 {
	}
	if r.c.defMask[0]&(r.c.defMask[0]-1) == 0 {
		t.Fatalf("no two deferred closes on rank 0 (mask %b)", r.c.defMask[0])
	}
	tbl := NewRequestTable()
	st := r.c.Save(tbl)
	st.Requests = tbl.States()
	doneFor := func(int) func(config.Time) { return nil }

	c := New(&r.cfg, &event.Queue{})
	if _, err := c.Load(st, doneFor); err != nil {
		t.Fatal(err)
	}
	for g := range c.defMask {
		if c.defMask[g] != r.c.defMask[g] {
			t.Fatalf("rank %d: restored mask %b, saved %b", g, c.defMask[g], r.c.defMask[g])
		}
	}

	st.DefPrech[0][0]++
	if _, err := New(&r.cfg, &event.Queue{}).Load(st, doneFor); err == nil {
		t.Fatal("Load accepted a DefPrech count that disagrees with DefAts")
	}
}
