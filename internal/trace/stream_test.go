package trace

import (
	"math"
	"testing"
	"testing/quick"

	"memscale/internal/config"
	"memscale/internal/racebuild"
)

func testMapper() *config.AddressMapper {
	c := config.Default()
	return config.NewAddressMapper(&c)
}

// mustStream builds a stream from a profile the test knows is valid.
func mustStream(tb testing.TB, p Profile, m *config.AddressMapper, seed uint64) *Stream {
	tb.Helper()
	s, err := NewStream(p, m, seed)
	if err != nil {
		tb.Fatalf("NewStream(%q): %v", p.Name, err)
	}
	return s
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical sequences")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds too correlated: %d collisions", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 100.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("Exp mean = %.2f, want ~%.0f", got, mean)
	}
}

func TestSeedStability(t *testing.T) {
	a := Seed("MID3", "apsi", 4)
	b := Seed("MID3", "apsi", 4)
	if a != b {
		t.Error("Seed must be deterministic")
	}
	if Seed("MID3", "apsi", 4) == Seed("MID3", "apsi", 5) {
		t.Error("different cores must get different seeds")
	}
	if Seed("a", "bc") == Seed("ab", "c") {
		t.Error("string concatenation must not collide")
	}
	defer func() {
		if recover() == nil {
			t.Error("Seed with unsupported type must panic")
		}
	}()
	Seed(3.14)
}

func validProfile() Profile {
	return Profile{
		Name: "test",
		Phases: []Phase{
			{BaseCPI: 1.0, MPKI: 2.0, WPKI: 0.5, RowLocality: 0.5},
		},
	}
}

func TestProfileValidate(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases[0].BaseCPI = 0 },
		func(p *Profile) { p.Phases[0].MPKI = 0 },
		func(p *Profile) { p.Phases[0].WPKI = -1 },
		func(p *Profile) { p.Phases[0].WPKI = 99 },
		func(p *Profile) { p.Phases[0].RowLocality = 1.0 },
		func(p *Profile) { p.Phases[0].HotRows = -1 },
		func(p *Profile) {
			p.Phases = []Phase{
				{BaseCPI: 1, MPKI: 1}, // non-final with zero length
				{BaseCPI: 1, MPKI: 1},
			}
		},
	}
	for i, mutate := range bad {
		p := validProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	m := testMapper()
	p := validProfile()
	a := mustStream(t, p, m, 123)
	b := mustStream(t, p, m, 123)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with identical seeds diverged")
		}
	}
}

func TestStreamMPKICalibration(t *testing.T) {
	m := testMapper()
	for _, mpki := range []float64{0.2, 2.5, 17.0} {
		p := Profile{Name: "cal", Phases: []Phase{
			{BaseCPI: 1, MPKI: mpki, WPKI: mpki / 4, RowLocality: 0.3},
		}}
		s := mustStream(t, p, m, 99)
		const n = 50000
		for i := 0; i < n; i++ {
			s.Next()
		}
		instr, reads, wbs := s.Stats()
		gotMPKI := float64(reads) / float64(instr) * 1000
		if math.Abs(gotMPKI-mpki)/mpki > 0.05 {
			t.Errorf("MPKI %.2f: generated %.3f (%.1f%% off)", mpki, gotMPKI,
				100*math.Abs(gotMPKI-mpki)/mpki)
		}
		gotWPKI := float64(wbs) / float64(instr) * 1000
		if math.Abs(gotWPKI-mpki/4)/(mpki/4) > 0.10 {
			t.Errorf("WPKI: generated %.3f, want %.3f", gotWPKI, mpki/4)
		}
	}
}

func TestStreamPhaseTransition(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "phased", Phases: []Phase{
		{Instructions: 100000, BaseCPI: 1, MPKI: 1, RowLocality: 0},
		{BaseCPI: 5, MPKI: 20, RowLocality: 0},
	}}
	s := mustStream(t, p, m, 5)
	var instrPhase0 uint64
	for s.PhaseIndex() == 0 {
		a := s.Next()
		if s.PhaseIndex() == 0 {
			instrPhase0 += a.Gap
			if a.BaseCPI != 1 {
				t.Fatal("phase 0 access with wrong BaseCPI")
			}
		}
	}
	if instrPhase0 > 100000 {
		t.Errorf("phase 0 ran %d instructions, want <= 100000", instrPhase0)
	}
	// After the boundary, accesses must carry phase-1 parameters.
	a := s.Next()
	if a.BaseCPI != 5 {
		t.Errorf("phase 1 BaseCPI = %g, want 5", a.BaseCPI)
	}
	// Phase-1 miss rate must be much higher: compare mean gaps.
	var gapSum uint64
	const n = 2000
	for i := 0; i < n; i++ {
		gapSum += s.Next().Gap
	}
	meanGap := float64(gapSum) / n
	if meanGap > 70 { // 1000/20 = 50 expected
		t.Errorf("phase 1 mean gap = %.1f, want ~50", meanGap)
	}
}

func TestStreamAddressesInRange(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "addr", Phases: []Phase{
		{BaseCPI: 1, MPKI: 10, WPKI: 5, RowLocality: 0.8, HotRows: 16},
	}}
	s := mustStream(t, p, m, 77)
	f := func(_ uint8) bool {
		a := s.Next()
		if a.Loc.Row >= 16 {
			return false
		}
		if a.Writeback {
			if a.WBLoc.Row >= 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Errorf("footprint violated: %v", err)
	}
}

func TestStreamRowLocality(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "loc", Phases: []Phase{
		{BaseCPI: 1, MPKI: 10, RowLocality: 0.9, HotRows: 64},
	}}
	s := mustStream(t, p, m, 3)
	sameRow := 0
	prev := s.Next().Loc
	const n = 5000
	for i := 0; i < n; i++ {
		cur := s.Next().Loc
		if cur.Channel == prev.Channel && cur.Rank == prev.Rank &&
			cur.Bank == prev.Bank && cur.Row == prev.Row {
			sameRow++
		}
		prev = cur
	}
	// With locality 0.9 and 128-line rows, most consecutive accesses
	// share a row (the stream wraps rows occasionally).
	if frac := float64(sameRow) / n; frac < 0.75 {
		t.Errorf("same-row fraction = %.2f, want > 0.75", frac)
	}
}

func TestStreamZeroLocalityJumps(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "jump", Phases: []Phase{
		{BaseCPI: 1, MPKI: 10, RowLocality: 0},
	}}
	s := mustStream(t, p, m, 8)
	channels := map[int]int{}
	for i := 0; i < 2000; i++ {
		channels[s.Next().Loc.Channel]++
	}
	if len(channels) != 4 {
		t.Errorf("random jumps hit %d channels, want 4", len(channels))
	}
	for ch, n := range channels {
		if n < 300 {
			t.Errorf("channel %d only got %d of 2000 accesses", ch, n)
		}
	}
}

func TestNewStreamRejectsInvalid(t *testing.T) {
	m := testMapper()
	p := validProfile()
	p.Phases[0].MPKI = 0
	if _, err := NewStream(p, m, 1); err == nil {
		t.Error("NewStream must reject invalid profiles")
	}
	p.Phases[0].MPKI = math.NaN()
	if _, err := NewStream(p, m, 1); err == nil {
		t.Error("NewStream must reject NaN rates")
	}
}

func BenchmarkStreamNext(b *testing.B) {
	m := testMapper()
	s := mustStream(b, validProfile(), m, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// TestZeroAllocs requires BenchmarkStreamNext to draw records with 0
// allocs/op.
func TestZeroAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation allocates and slows the benchmark")
	}
	if got := testing.Benchmark(BenchmarkStreamNext).AllocsPerOp(); got != 0 {
		t.Errorf("BenchmarkStreamNext: %d allocs/op, want 0", got)
	}
}
