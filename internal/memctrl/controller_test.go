package memctrl

import (
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
)

// rig bundles a controller with its event queue and address mapper.
type rig struct {
	cfg    config.Config
	q      *event.Queue
	c      *Controller
	mapper *config.AddressMapper
}

func newRig(mutate func(*config.Config)) *rig {
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	q := &event.Queue{}
	c := New(&cfg, q)
	c.Start()
	return &rig{cfg: cfg, q: q, c: c, mapper: config.NewAddressMapper(&cfg)}
}

// drain runs the queue for a bounded simulated horizon. The refresh
// timers re-arm forever, so an unbounded Run would never return.
func (r *rig) drain() { r.q.RunUntil(r.q.Now() + 10*config.Millisecond) }

// line returns the address of (channel, rank, bank, row, col).
func (r *rig) line(ch, rank, bank, row, col int) uint64 {
	return r.mapper.LineForRow(ch, rank, bank, row, col)
}

// read enqueues a read and returns a pointer to its completion time
// (zero until completed).
func (r *rig) read(now config.Time, line uint64, core int) *config.Time {
	var done config.Time
	r.c.Enqueue(now, line, false, core, func(at config.Time) { done = at })
	return &done
}

func TestSingleReadLatency(t *testing.T) {
	r := newRig(nil)
	done := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	r.drain()
	tm := r.c.Timing()
	// MC pipeline + closed-bank activate + CAS + burst.
	want := tm.MC + tm.TRCD + tm.TCL + tm.Burst
	if *done != want {
		t.Errorf("read completed at %v, want %v", *done, want)
	}
	ctr := r.c.Counters()
	if ctr.Reads != 1 || ctr.CBMC != 1 || ctr.RBHC != 0 || ctr.OBMC != 0 {
		t.Errorf("counters: %+v", ctr)
	}
	if ctr.TLM[0] != 1 {
		t.Errorf("TLM[0] = %d", ctr.TLM[0])
	}
}

func TestRowHitWhenQueued(t *testing.T) {
	r := newRig(nil)
	// Two reads to the same row, back to back: the second must be
	// detected as a row hit (closed-page keeps the row open only when
	// a same-row request is already queued).
	a := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	b := r.read(0, r.line(0, 0, 0, 10, 1), 1)
	r.drain()
	ctr := r.c.Counters()
	if ctr.RBHC != 1 || ctr.CBMC != 1 {
		t.Fatalf("want 1 hit + 1 closed miss, got RBHC=%d CBMC=%d OBMC=%d",
			ctr.RBHC, ctr.CBMC, ctr.OBMC)
	}
	if !(*b > *a) {
		t.Errorf("completions out of order: %v, %v", *a, *b)
	}
	tm := r.c.Timing()
	// The hit re-traverses the MC pipeline but needs only tCL at the
	// device.
	if want := *a + tm.MC + tm.TCL + tm.Burst; *b != want {
		t.Errorf("hit completed at %v, want %v", *b, want)
	}
}

func TestDifferentRowsSameBankSerialize(t *testing.T) {
	r := newRig(nil)
	a := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	b := r.read(0, r.line(0, 0, 0, 11, 0), 1)
	r.drain()
	ctr := r.c.Counters()
	if ctr.CBMC != 2 {
		t.Errorf("want 2 closed misses (auto-precharge between), got %+v", ctr)
	}
	tm := r.c.Timing()
	// Second access waits for the first's precharge: its completion is
	// at least first + tRP + tRCD + tCL + burst.
	if min := *a + tm.TRP + tm.TRCD + tm.TCL + tm.Burst; *b < min {
		t.Errorf("second access at %v, want >= %v", *b, min)
	}
}

func TestParallelBanksOverlap(t *testing.T) {
	r := newRig(nil)
	a := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	b := r.read(0, r.line(0, 0, 1, 10, 0), 1)
	r.drain()
	tm := r.c.Timing()
	// Bank-parallel accesses: the second completes one burst (plus
	// tRRD skew) after the first, far sooner than serialized.
	if *b >= *a+tm.TRCD {
		t.Errorf("bank parallelism missing: a=%v b=%v", *a, *b)
	}
}

func TestChannelsIndependent(t *testing.T) {
	r := newRig(nil)
	a := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	b := r.read(0, r.line(1, 0, 0, 10, 0), 1)
	r.drain()
	if *a != *b {
		t.Errorf("identical accesses on different channels must complete together: %v vs %v", *a, *b)
	}
}

func TestBusSerializesReadyRequests(t *testing.T) {
	r := newRig(nil)
	// Many banks ready around the same time: bursts serialize on the
	// channel bus.
	n := 8
	dones := make([]*config.Time, n)
	for i := 0; i < n; i++ {
		dones[i] = r.read(0, r.line(0, i%4/2, i%8, 10, 0), i)
	}
	r.drain()
	seen := map[config.Time]bool{}
	for i, d := range dones {
		if *d == 0 {
			t.Fatalf("request %d never completed", i)
		}
		if seen[*d] {
			t.Errorf("two bursts completed at the same instant %v on one channel", *d)
		}
		seen[*d] = true
	}
	ctr := r.c.Counters()
	if ctr.Reads != uint64(n) {
		t.Errorf("Reads = %d, want %d", ctr.Reads, n)
	}
}

func TestWritebackCompletes(t *testing.T) {
	r := newRig(nil)
	r.c.Enqueue(0, r.line(0, 0, 0, 5, 0), true, 0, nil)
	r.drain()
	ctr := r.c.Counters()
	if ctr.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", ctr.Writebacks)
	}
	if ctr.TLM[0] != 0 {
		t.Error("writebacks must not count as LLC misses")
	}
}

func TestReadPriorityOverWriteback(t *testing.T) {
	r := newRig(nil)
	// A writeback and a read race for the same bank; with an empty
	// writeback queue the read goes first.
	r.c.Enqueue(0, r.line(0, 0, 0, 5, 0), true, 0, nil)
	done := r.read(0, r.line(0, 0, 0, 9, 0), 0)
	// Dispatch happens on enqueue; the writeback arrived first and
	// grabbed the idle bank, so instead race them from a busy bank.
	r.drain()
	if *done == 0 {
		t.Fatal("read never completed")
	}

	// Now a clean rig: make the bank busy, then enqueue WB + read.
	r2 := newRig(nil)
	first := r2.read(0, r2.line(0, 0, 0, 1, 0), 0)
	r2.c.Enqueue(0, r2.line(0, 0, 0, 5, 0), true, 0, nil)
	read := r2.read(0, r2.line(0, 0, 0, 9, 0), 0)
	r2.drain()
	wbCtr := r2.c.Counters()
	if wbCtr.Reads != 2 || wbCtr.Writebacks != 1 {
		t.Fatalf("counters: %+v", wbCtr)
	}
	_ = first
	// The read must finish before... we can't observe WB completion
	// time directly; instead check the read wasn't delayed by the WB:
	// read is the 2nd access of the bank, so it completes ~2 service
	// times in; if the WB had priority it would be ~3.
	tm := r2.c.Timing()
	serial := tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	if *read > *first+2*serial {
		t.Errorf("read delayed behind writeback: first=%v read=%v", *first, *read)
	}
}

func TestWritebackPressureFlipsPriority(t *testing.T) {
	r := newRig(func(c *config.Config) { c.WritebackQueueCap = 4 })
	// Saturate the writeback queue for one bank while a stream of
	// reads arrives; with >= cap/2 pending writebacks, writes drain
	// first.
	for i := 0; i < 4; i++ {
		r.c.Enqueue(0, r.line(0, 0, 0, 20+i, 0), true, 0, nil)
	}
	done := r.read(0, r.line(0, 0, 0, 9, 0), 0)
	r.drain()
	ctr := r.c.Counters()
	if ctr.Writebacks != 4 || ctr.Reads != 1 {
		t.Fatalf("counters: %+v", ctr)
	}
	tm := r.c.Timing()
	serial := tm.TRP + tm.TRCD + tm.TCL + tm.Burst
	// The read must have waited behind at least the first two
	// writebacks (priority flipped), so it completes later than two
	// full services.
	if *done < 2*serial {
		t.Errorf("read at %v finished before the writeback drain", *done)
	}
}

func TestBTOAccumulation(t *testing.T) {
	r := newRig(nil)
	line := r.line(0, 0, 0, 10, 0)
	// Three requests to one bank at t=0: arrivals see 0, 1, 2
	// outstanding -> BTO = 3, BTC = 3.
	for i := 0; i < 3; i++ {
		r.read(0, line, i)
	}
	ctr := r.c.Counters()
	if ctr.BTC != 3 || ctr.BTO != 3 {
		t.Errorf("BTO/BTC = %d/%d, want 3/3", ctr.BTO, ctr.BTC)
	}
	if got := ctr.BankQueueDepth(); got != 1.0 {
		t.Errorf("BankQueueDepth = %g, want 1", got)
	}
	r.drain()
}

func TestCountersSubAndClone(t *testing.T) {
	r := newRig(nil)
	before := r.c.Counters()
	r.read(0, r.line(0, 0, 0, 10, 0), 3)
	r.drain()
	after := r.c.Counters()
	d := after.Sub(before)
	if d.Reads != 1 || d.TLM[3] != 1 || d.BTC != 1 {
		t.Errorf("delta: %+v", d)
	}
	// Clone isolation.
	snap := r.c.Counters()
	snap.TLM[3] = 999
	if r.c.Counters().TLM[3] == 999 {
		t.Error("Clone must copy the TLM slice")
	}
}

func TestRefreshHappens(t *testing.T) {
	r := newRig(nil)
	// Run for 100 us with no traffic: each of the 16 ranks refreshes
	// every 7.8125 us -> ~12 refreshes per rank.
	r.q.RunUntil(100 * config.Microsecond)
	iv := r.c.FlushInterval(100 * config.Microsecond)
	perRank := float64(iv.DRAMTotal().Refreshes) / float64(r.cfg.TotalRanks())
	if perRank < 11 || perRank > 14 {
		t.Errorf("refreshes per rank in 100us = %.1f, want ~12", perRank)
	}
	if iv.DRAMTotal().Refreshing <= 0 {
		t.Error("no refresh time accounted")
	}
}

func TestRefreshDefersUnderConflict(t *testing.T) {
	r := newRig(nil)
	// Issue a read just before the rank's first refresh deadline and
	// confirm both complete.
	first := r.c.Timing().RefreshInterval / config.Time(r.cfg.TotalRanks())
	done := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	r.q.RunUntil(first + 10*config.Microsecond)
	if *done == 0 {
		t.Fatal("read starved by refresh")
	}
	iv := r.c.FlushInterval(r.q.Now())
	if iv.DRAMTotal().Refreshes == 0 {
		t.Error("refresh never issued")
	}
}

func TestPowerdownEntersAndExits(t *testing.T) {
	r := newRig(func(c *config.Config) { c.Powerdown = config.PowerdownFast })
	// Idle from the start: ranks drop into PD immediately.
	r.q.RunUntil(50 * config.Microsecond)
	// A read wakes channel 0 rank 0.
	done := r.read(r.q.Now(), r.line(0, 0, 0, 10, 0), 0)
	r.q.RunUntil(60 * config.Microsecond)
	if *done == 0 {
		t.Fatal("read out of powerdown never completed")
	}
	ctr := r.c.Counters()
	if ctr.EPDC == 0 {
		t.Error("EPDC = 0, want powerdown exits (refreshes + the read)")
	}
	iv := r.c.FlushInterval(r.q.Now())
	if iv.DRAMTotal().PrechargePD == 0 {
		t.Error("no precharge-PD time accounted")
	}
	// PD should dominate the idle period.
	if frac := iv.DRAMTotal().PrechargePDFraction(); frac < 0.8 {
		t.Errorf("PD fraction = %.2f, want > 0.8 on an idle system", frac)
	}
}

func TestSlowPowerdownUsesSlowState(t *testing.T) {
	r := newRig(func(c *config.Config) { c.Powerdown = config.PowerdownSlow })
	r.q.RunUntil(50 * config.Microsecond)
	iv := r.c.FlushInterval(r.q.Now())
	if iv.DRAMTotal().PrechargePDSlow == 0 {
		t.Error("slow-PD policy accounted no slow-PD time")
	}
	if iv.DRAMTotal().PrechargePD > iv.DRAMTotal().PrechargePDSlow {
		t.Error("slow-PD policy spent more time in fast PD than slow PD")
	}
}

func TestFrequencyChangeHaltsAndResumes(t *testing.T) {
	r := newRig(nil)
	r.c.FlushInterval(0)
	applied := r.c.SetBusFrequency(0, config.Freq400)
	want := config.Freq400.Cycles(512) + 28*config.Nanosecond
	if applied != want {
		t.Errorf("relock completes at %v, want %v", applied, want)
	}
	if !r.c.relocking {
		t.Error("controller must report relocking")
	}
	// A read issued during the relock waits for it.
	done := r.read(0, r.line(0, 0, 0, 10, 0), 0)
	r.drain()
	if r.c.BusFreq() != config.Freq400 {
		t.Errorf("bus frequency = %v", r.c.BusFreq())
	}
	tm := r.c.Timing()
	min := applied + tm.MC + tm.TRCD + tm.TCL + tm.Burst
	if *done < min {
		t.Errorf("read at %v completed before relock + service (%v)", *done, min)
	}
}

func TestFrequencyChangeNoOp(t *testing.T) {
	r := newRig(nil)
	if got := r.c.SetBusFrequency(0, config.MaxBusFreq); got != 0 {
		t.Errorf("same-frequency switch must be free, got %v", got)
	}
}

func TestSetBusFrequencyRequiresFlush(t *testing.T) {
	r := newRig(nil)
	r.q.RunUntil(config.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("SetBusFrequency without flush must panic")
		}
	}()
	r.c.SetBusFrequency(r.q.Now(), config.Freq400)
}

func TestLatencyGrowsAtLowerFrequency(t *testing.T) {
	lat := func(f config.FreqMHz) config.Time {
		r := newRig(nil)
		if f != config.MaxBusFreq {
			r.c.FlushInterval(0)
			r.c.SetBusFrequency(0, f)
			r.drain()
		}
		start := r.q.Now()
		done := r.read(start, r.line(0, 0, 0, 10, 0), 0)
		r.drain()
		return *done - start
	}
	l800, l200 := lat(config.Freq800), lat(config.Freq200)
	if l200 <= l800 {
		t.Errorf("latency at 200 MHz (%v) not above 800 MHz (%v)", l200, l800)
	}
	// But far from linear in frequency: the device core is unscaled
	// (Section 2.2). 4x slower clock must cost well under 2x latency.
	if l200 >= 2*l800 {
		t.Errorf("latency grew too much: %v -> %v", l800, l200)
	}
}

func TestDecoupledDevFreqLatency(t *testing.T) {
	norm := newRig(nil)
	dec := newRig(func(c *config.Config) { c.DecoupledDevFreq = config.Freq400 })
	d1 := norm.read(0, norm.line(0, 0, 0, 10, 0), 0)
	d2 := dec.read(0, dec.line(0, 0, 0, 10, 0), 0)
	norm.drain()
	dec.drain()
	if tm := dec.c.Timing(); tm.DevBurst != dec.cfg.Timing.BurstTime(config.Freq400) || tm.BusFreq != config.Freq800 {
		t.Fatalf("decoupled rig timing: bus %v device burst %v", tm.BusFreq, tm.DevBurst)
	}
	if *d2 <= *d1 {
		t.Errorf("decoupled access (%v) must be slower than lock-step (%v)", *d2, *d1)
	}
}

func TestFlushIntervalAccountsConserve(t *testing.T) {
	r := newRig(nil)
	for i := 0; i < 20; i++ {
		r.read(config.Time(i)*config.Microsecond, r.line(i%4, i%2, i%8, 10+i, 0), i%16)
	}
	r.q.RunUntil(200 * config.Microsecond)
	iv := r.c.FlushInterval(200 * config.Microsecond)
	wantTotal := config.Time(r.cfg.TotalRanks()) * 200 * config.Microsecond
	if got := iv.DRAMTotal().Total(); got != wantTotal {
		t.Errorf("accounted rank-time = %v, want %v", got, wantTotal)
	}
	if iv.Duration != 200*config.Microsecond {
		t.Errorf("interval duration = %v", iv.Duration)
	}
	if iv.Channels[0].Busy == 0 {
		t.Error("channel 0 never busy despite traffic")
	}
	// Second flush starts clean.
	r.q.RunUntil(300 * config.Microsecond)
	iv2 := r.c.FlushInterval(300 * config.Microsecond)
	if iv2.Duration != 100*config.Microsecond {
		t.Errorf("second interval duration = %v", iv2.Duration)
	}
}

func TestQueuedRequests(t *testing.T) {
	r := newRig(nil)
	line := r.line(0, 0, 0, 10, 0)
	for i := 0; i < 5; i++ {
		r.read(0, line, 0)
	}
	if got := r.c.QueuedRequests(); got != 5 {
		t.Errorf("QueuedRequests = %d, want 5", got)
	}
	r.drain()
	if got := r.c.QueuedRequests(); got != 0 {
		t.Errorf("QueuedRequests after drain = %d, want 0", got)
	}
}

func TestManyRandomRequestsDrain(t *testing.T) {
	r := newRig(func(c *config.Config) { c.Powerdown = config.PowerdownFast })
	var completed int
	const n = 3000
	seed := uint64(12345)
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		line := seed % r.mapper.Lines()
		at := config.Time(i) * 20 * config.Nanosecond
		if seed%5 == 0 {
			r.c.Enqueue(at, line, true, int(seed%16), nil)
			completed++ // writebacks complete silently
		} else {
			r.c.Enqueue(at, line, false, int(seed%16), func(config.Time) { completed++ })
		}
	}
	r.drain()
	ctr := r.c.Counters()
	if ctr.Reads+ctr.Writebacks != n {
		t.Fatalf("served %d of %d requests", ctr.Reads+ctr.Writebacks, n)
	}
	if r.c.QueuedRequests() != 0 {
		t.Error("requests still queued after drain")
	}
	iv := r.c.FlushInterval(r.q.Now())
	if iv.DRAMTotal().Total() != config.Time(r.cfg.TotalRanks())*r.q.Now() {
		t.Error("rank accounting does not conserve time under load")
	}
}
