package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"memscale/internal/config"
)

func mustNew(t *testing.T, c Config, attempt int) *Injector {
	t.Helper()
	in, err := New(c, attempt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if got := in.EpochPlan(5); got != (Plan{}) {
		t.Fatalf("nil injector plan = %+v, want zero", got)
	}
	if got := in.Config(); got != (Config{}) {
		t.Fatalf("nil injector config = %+v, want zero", got)
	}
	if got := in.RelockStall(100, 0, false); got != 100 {
		t.Fatalf("nil RelockStall clean = %v, want penalty", got)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := mustNew(t, Config{Seed: 7}, 0)
	for e := 0; e < 200; e++ {
		if got := in.EpochPlan(e); got != (Plan{}) {
			t.Fatalf("epoch %d: plan = %+v, want zero", e, got)
		}
	}
}

func TestDeterminismAndOrderIndependence(t *testing.T) {
	cfg := Config{
		Seed:               42,
		RefreshStormRate:   0.3,
		RelockFailRate:     0.4,
		CounterCorruptRate: 0.3,
		ThermalRate:        0.2,
		TransientAbortRate: 0.5,
	}
	a := mustNew(t, cfg, 0)
	b := mustNew(t, cfg, 0)

	const epochs = 128
	forward := make([]Plan, epochs)
	for e := 0; e < epochs; e++ {
		forward[e] = a.EpochPlan(e)
	}
	// Query b backwards, twice over, and interleaved: every answer
	// must match the forward pass exactly.
	for pass := 0; pass < 2; pass++ {
		for e := epochs - 1; e >= 0; e-- {
			if got := b.EpochPlan(e); got != forward[e] {
				t.Fatalf("pass %d epoch %d: plan %+v != forward %+v", pass, e, got, forward[e])
			}
		}
	}

	// A different seed must produce a different schedule somewhere.
	c := mustNew(t, Config{Seed: 43, RefreshStormRate: 0.3, RelockFailRate: 0.4,
		CounterCorruptRate: 0.3, ThermalRate: 0.2, TransientAbortRate: 0.5}, 0)
	same := true
	for e := 0; e < epochs; e++ {
		if c.EpochPlan(e) != forward[e] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's schedule")
	}
}

func TestAttemptOnlyAffectsAbortDraw(t *testing.T) {
	cfg := Config{
		Seed:               9,
		RefreshStormRate:   0.5,
		RelockFailRate:     0.5,
		CounterCorruptRate: 0.5,
		ThermalRate:        0.5,
		TransientAbortRate: 0.5,
	}
	a0 := mustNew(t, cfg, 0)
	a1 := mustNew(t, cfg, 1)
	for e := 0; e < 64; e++ {
		p0, p1 := a0.EpochPlan(e), a1.EpochPlan(e)
		p0.Abort, p1.Abort = false, false
		if p0 != p1 {
			t.Fatalf("epoch %d: hardware schedule differs across attempts: %+v vs %+v", e, p0, p1)
		}
	}
	// With rate 0.5 the abort draw should differ across attempts for
	// some seed; scan a few to avoid flaking on one unlucky seed.
	varies := false
	for seed := uint64(0); seed < 32 && !varies; seed++ {
		c := cfg
		c.Seed = seed
		x := mustNew(t, c, 0).EpochPlan(0).Abort
		y := mustNew(t, c, 1).EpochPlan(0).Abort
		varies = x != y
	}
	if !varies {
		t.Fatal("abort draw never varied with attempt across 32 seeds")
	}
}

func TestAbortOnlyAtEpochZero(t *testing.T) {
	cfg := Config{Seed: 1, TransientAbortRate: 1}
	in := mustNew(t, cfg, 0)
	if !in.EpochPlan(0).Abort {
		t.Fatal("rate-1 abort did not fire at epoch 0")
	}
	for e := 1; e < 16; e++ {
		if in.EpochPlan(e).Abort {
			t.Fatalf("abort fired at epoch %d", e)
		}
	}
}

func TestPanicPlan(t *testing.T) {
	in := mustNew(t, Config{Seed: 1, PanicEnabled: true, PanicEpoch: 3}, 0)
	for e := 0; e < 8; e++ {
		if got := in.EpochPlan(e).Panic; got != (e == 3) {
			t.Fatalf("epoch %d: Panic = %v", e, got)
		}
	}
}

func TestThermalWindowSpansEpochs(t *testing.T) {
	cfg := Config{Seed: 5, ThermalRate: 0.15, ThermalWindowEpochs: 3}
	in := mustNew(t, cfg, 0)
	// Recompute windows from the raw trigger draws and compare
	// against the plan's ceiling to validate the lookback.
	const epochs = 256
	trigger := make([]bool, epochs)
	for e := 0; e < epochs; e++ {
		trigger[e] = in.draw(saltThermal, uint64(e)) < cfg.ThermalRate
	}
	anyCovered := false
	for e := 0; e < epochs; e++ {
		want := false
		for w := e; w > e-3 && w >= 0; w-- {
			if trigger[w] {
				want = true
			}
		}
		got := in.EpochPlan(e).ThermalCeiling != 0
		if got != want {
			t.Fatalf("epoch %d: thermal covered = %v, want %v", e, got, want)
		}
		if got {
			anyCovered = true
			if ceil := in.EpochPlan(e).ThermalCeiling; ceil != DefaultThermalCeiling {
				t.Fatalf("epoch %d: ceiling = %v, want default %v", e, ceil, DefaultThermalCeiling)
			}
		}
	}
	if !anyCovered {
		t.Fatal("no thermal window ever opened at rate 0.15 over 256 epochs")
	}
}

func TestRelockFailuresBoundedAndAbandoned(t *testing.T) {
	cfg := Config{Seed: 11, RelockFailRate: 1, RelockMaxRetries: 2}
	in := mustNew(t, cfg, 0)
	p := in.EpochPlan(0)
	if p.RelockFailures != 3 || !p.RelockAbandoned {
		t.Fatalf("rate-1 relock: failures=%d abandoned=%v, want 3/true", p.RelockFailures, p.RelockAbandoned)
	}

	cfg.RelockFailRate = 0.5
	in = mustNew(t, cfg, 0)
	seenClean, seenFail := false, false
	for e := 0; e < 128; e++ {
		p := in.EpochPlan(e)
		if p.RelockFailures < 0 || p.RelockFailures > 3 {
			t.Fatalf("epoch %d: failures = %d out of bounds", e, p.RelockFailures)
		}
		if p.RelockAbandoned != (p.RelockFailures == 3) {
			t.Fatalf("epoch %d: abandoned=%v inconsistent with failures=%d", e, p.RelockAbandoned, p.RelockFailures)
		}
		seenClean = seenClean || p.RelockFailures == 0
		seenFail = seenFail || p.RelockFailures > 0
	}
	if !seenClean || !seenFail {
		t.Fatalf("rate-0.5 relock draw degenerate: clean=%v fail=%v", seenClean, seenFail)
	}
}

func TestRelockStallSchedule(t *testing.T) {
	in := mustNew(t, Config{Seed: 1, RelockFailRate: 0.5, RelockBackoff: 100 * config.Nanosecond}, 0)
	penalty := config.Time(1000 * config.Nanosecond)

	if got := in.RelockStall(penalty, 0, false); got != penalty {
		t.Fatalf("clean relock stall = %v, want %v", got, penalty)
	}
	// 2 failures then success: (p+100ns) + (p+200ns) + p.
	want := 3*penalty + 300*config.Nanosecond
	if got := in.RelockStall(penalty, 2, false); got != want {
		t.Fatalf("2-failure stall = %v, want %v", got, want)
	}
	// 2 failures abandoned: no final success penalty.
	want = 2*penalty + 300*config.Nanosecond
	if got := in.RelockStall(penalty, 2, true); got != want {
		t.Fatalf("abandoned stall = %v, want %v", got, want)
	}
	if got := in.RelockStall(penalty, 0, true); got != 0 {
		t.Fatalf("0-failure abandoned stall = %v, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RefreshStormRate: -0.1},
		{RefreshStormRate: 1.1},
		{RelockFailRate: math.NaN()},
		{CounterCorruptRate: math.Inf(1)},
		{ThermalRate: 2},
		{TransientAbortRate: -1},
		{RefreshStormBursts: -1},
		{RelockMaxRetries: -1},
		{RelockBackoff: -1},
		{ThermalCeiling: 123},
		{ThermalWindowEpochs: -1},
		{MaxRunRetries: -1},
		{PanicEnabled: true, PanicEpoch: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad[%d] %+v: err = %v, want ErrInvalidConfig", i, c, err)
		}
		if _, err := New(c, 0); err == nil {
			t.Errorf("bad[%d]: New accepted invalid config", i)
		}
	}
	good := []Config{
		{},
		{Seed: 1, RefreshStormRate: 1, RelockFailRate: 1, CounterCorruptRate: 1, ThermalRate: 1, TransientAbortRate: 1},
		{ThermalCeiling: config.Freq400},
		{PanicEnabled: true, PanicEpoch: 0},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good[%d] %+v: unexpected err %v", i, c, err)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	got := Config{}.WithDefaults()
	want := Config{
		RefreshStormBursts:  DefaultRefreshStormBursts,
		RelockMaxRetries:    DefaultRelockMaxRetries,
		RelockBackoff:       DefaultRelockBackoff,
		ThermalCeiling:      DefaultThermalCeiling,
		ThermalWindowEpochs: DefaultThermalWindowEpochs,
		MaxRunRetries:       DefaultMaxRunRetries,
	}
	if got != want {
		t.Fatalf("WithDefaults = %+v, want %+v", got, want)
	}
	// Explicit values survive.
	c := Config{RefreshStormBursts: 5, RelockMaxRetries: 1, ThermalCeiling: config.Freq200}
	d := c.WithDefaults()
	if d.RefreshStormBursts != 5 || d.RelockMaxRetries != 1 || d.ThermalCeiling != config.Freq200 {
		t.Fatalf("WithDefaults clobbered explicit values: %+v", d)
	}
}

func TestCounts(t *testing.T) {
	c := Counts{
		RefreshStorms:      2,
		RelockFaults:       3,
		RelockAbandoned:    1,
		CounterCorruptions: 4,
		ThermalEpochs:      5,
		TransientAborts:    1,
		InjectedPanics:     1,
		DegradedEpochs:     9,
	}
	if got := c.Total(); got != 16 {
		t.Fatalf("Total = %d, want 16", got)
	}
	var sum Counts
	sum.Add(c)
	sum.Add(c)
	if sum.RelockFaults != 6 || sum.DegradedEpochs != 18 {
		t.Fatalf("Add: %+v", sum)
	}
	m := c.Map()
	want := map[string]uint64{
		"refresh_storm": 2, "relock_failure": 3, "relock_abandoned": 1,
		"counter_corruption": 4, "thermal_emergency": 5,
		"transient_abort": 1, "injected_panic": 1, "degraded_epochs": 9,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("Map = %v, want %v", m, want)
	}
	if got := (Counts{}).Map(); got != nil {
		t.Fatalf("zero Counts Map = %v, want nil", got)
	}
}

func TestKindString(t *testing.T) {
	if got := Kind(0).String(); got != "none" {
		t.Fatalf("Kind(0) = %q", got)
	}
	if got := (KindRefreshStorm | KindThermal).String(); got != "refresh_storm+thermal_emergency" {
		t.Fatalf("mask string = %q", got)
	}
}

func TestInjectedPanicString(t *testing.T) {
	if got := (InjectedPanic{Epoch: 4}).String(); got != "faults: injected panic at epoch 4" {
		t.Fatalf("String = %q", got)
	}
}

func TestRatesActuallyFire(t *testing.T) {
	// Sanity: at rate 0.5 over 256 epochs every class fires and also
	// skips at least once (catches a broken draw that is constant).
	cfg := Config{Seed: 77, RefreshStormRate: 0.5, CounterCorruptRate: 0.5, ThermalRate: 0.5, ThermalWindowEpochs: 1}
	in := mustNew(t, cfg, 0)
	var storms, corrupt, thermal int
	for e := 0; e < 256; e++ {
		p := in.EpochPlan(e)
		if p.Storm {
			storms++
			if p.StormBursts != DefaultRefreshStormBursts {
				t.Fatalf("epoch %d: bursts = %d", e, p.StormBursts)
			}
		}
		if p.CorruptProfile {
			corrupt++
		}
		if p.ThermalCeiling != 0 {
			thermal++
		}
	}
	for name, n := range map[string]int{"storms": storms, "corrupt": corrupt, "thermal": thermal} {
		if n == 0 || n == 256 {
			t.Fatalf("%s fired %d/256 times — draw looks degenerate", name, n)
		}
	}
}
