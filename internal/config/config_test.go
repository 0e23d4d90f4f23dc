package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("time unit ladder broken")
	}
	if got := (5 * Millisecond).Seconds(); got != 0.005 {
		t.Errorf("5ms.Seconds() = %g", got)
	}
	if got := FromNanoseconds(15); got != 15*Nanosecond {
		t.Errorf("FromNanoseconds(15) = %d", int64(got))
	}
	if got := FromNanoseconds(1.2345); got != 1234*Picosecond+Picosecond {
		t.Errorf("FromNanoseconds(1.2345) = %d, want 1235", int64(got))
	}
	if got := FromSeconds(0.001); got != Millisecond {
		t.Errorf("FromSeconds(0.001) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1250 * Picosecond, "1.25ns"},
		{300 * Microsecond, "300.00us"},
		{5 * Millisecond, "5.000ms"},
		{2 * Second, "2.0000s"},
		{-5 * Millisecond, "-5.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(1, 2) != 1 || MinTime(2, 1) != 1 {
		t.Error("MinTime wrong")
	}
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Error("MaxTime wrong")
	}
}

func TestFrequencyPeriods(t *testing.T) {
	cases := []struct {
		f    FreqMHz
		want Time
	}{
		{Freq800, 1250 * Picosecond},
		{Freq400, 2500 * Picosecond},
		{Freq200, 5000 * Picosecond},
		{Freq533, 1876 * Picosecond}, // 1876.17 rounds to 1876
	}
	for _, c := range cases {
		if got := c.f.Period(); got != c.want {
			t.Errorf("%v.Period() = %d ps, want %d", c.f, int64(got), int64(c.want))
		}
	}
}

func TestPeriodRoundTripError(t *testing.T) {
	// Rounded integer periods must stay within 0.1% of the exact period.
	for _, f := range BusFrequencies {
		exact := 1e6 / float64(f) // ps
		got := float64(f.Period())
		if rel := (got - exact) / exact; rel > 0.001 || rel < -0.001 {
			t.Errorf("%v period error %.4f%%", f, rel*100)
		}
	}
}

func TestCyclesCeil(t *testing.T) {
	// 15 ns at 800 MHz (1.25 ns period) is exactly 12 cycles.
	if got := Freq800.CyclesCeil(15 * Nanosecond); got != 12 {
		t.Errorf("CyclesCeil(15ns @ 800MHz) = %d, want 12", got)
	}
	// One picosecond more must round up.
	if got := Freq800.CyclesCeil(15*Nanosecond + Picosecond); got != 13 {
		t.Errorf("CyclesCeil(15ns+1ps @ 800MHz) = %d, want 13", got)
	}
	if got := Freq800.QuantizeCeil(15*Nanosecond + Picosecond); got != Freq800.Cycles(13) {
		t.Errorf("QuantizeCeil = %v", got)
	}
	if got := Freq800.CyclesCeil(0); got != 0 {
		t.Errorf("CyclesCeil(0) = %d", got)
	}
}

func TestFrequencyLadder(t *testing.T) {
	if len(BusFrequencies) != 10 {
		t.Fatalf("ladder has %d entries, want 10", len(BusFrequencies))
	}
	if BusFrequencies[0] != MaxBusFreq {
		t.Error("first ladder entry must be the nominal frequency")
	}
	for i := 1; i < len(BusFrequencies); i++ {
		if BusFrequencies[i] >= BusFrequencies[i-1] {
			t.Error("ladder must be strictly decreasing")
		}
	}
	for _, f := range BusFrequencies {
		if !ValidBusFrequency(f) {
			t.Errorf("%v not recognized as valid", f)
		}
	}
	if ValidBusFrequency(501) {
		t.Error("501 MHz should be invalid")
	}
}

func TestNearestBusFrequency(t *testing.T) {
	cases := []struct {
		in, want FreqMHz
	}{
		{800, 800}, {790, 800}, {760, 733}, {100, 200}, {9999, 800},
		{434, 467}, // |434-467| = 33 beats |434-400| = 34
		{500, 533}, // exact tie breaks toward the higher frequency
		{567, 600}, // |567-600| = 33 beats |567-533| = 34
	}
	for _, c := range cases {
		got := NearestBusFrequency(c.in)
		if !ValidBusFrequency(got) {
			t.Errorf("NearestBusFrequency(%v) = %v is off-ladder", c.in, got)
		}
		if got != c.want {
			t.Errorf("NearestBusFrequency(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMCFreq(t *testing.T) {
	if MCFreq(Freq800) != 1600 {
		t.Errorf("MCFreq(800) = %v", MCFreq(Freq800))
	}
	if MCFreq(Freq200) != 400 {
		t.Errorf("MCFreq(200) = %v", MCFreq(Freq200))
	}
}

func TestDDR3TimingDefaults(t *testing.T) {
	tm := DefaultDDR3Timing()
	if tm.TRCD != 15*Nanosecond || tm.TRP != 15*Nanosecond || tm.TCL != 15*Nanosecond {
		t.Error("tRCD/tRP/tCL must be 15 ns")
	}
	if tm.TRAS != 35*Nanosecond {
		t.Errorf("tRAS = %v, want 35 ns (28 cycles @ 800 MHz)", tm.TRAS)
	}
	if tm.TFAW != 25*Nanosecond {
		t.Errorf("tFAW = %v, want 25 ns (20 cycles @ 800 MHz)", tm.TFAW)
	}
	if tm.RefreshInterval() != 7812500*Picosecond {
		t.Errorf("tREFI = %v, want 7.8125 us", tm.RefreshInterval())
	}
	if got := tm.BurstTime(Freq800); got != 5*Nanosecond {
		t.Errorf("burst @ 800 MHz = %v, want 5 ns", got)
	}
	if got := tm.BurstTime(Freq200); got != 20*Nanosecond {
		t.Errorf("burst @ 200 MHz = %v, want 20 ns", got)
	}
	if got := tm.MCTime(Freq800); got != 3125*Picosecond {
		t.Errorf("MC time @ 800 MHz = %v, want 3.125 ns", got)
	}
	// MC latency must grow as the bus slows.
	if tm.MCTime(Freq200) <= tm.MCTime(Freq800) {
		t.Error("MC latency must increase at lower frequency")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.TotalRanks() != 16 {
		t.Errorf("TotalRanks = %d, want 16", c.TotalRanks())
	}
	if c.TotalDIMMs() != 8 {
		t.Errorf("TotalDIMMs = %d, want 8", c.TotalDIMMs())
	}
	if c.TotalBanks() != 128 {
		t.Errorf("TotalBanks = %d, want 128", c.TotalBanks())
	}
	if c.LinesPerRow() != 128 {
		t.Errorf("LinesPerRow = %d, want 128", c.LinesPerRow())
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := []struct {
		mutate func(*Config)
		want   string // substring the error must contain, if set
	}{
		{mutate: func(c *Config) { c.Cores = 0 }},
		{mutate: func(c *Config) { c.CPUFreqMHz = 0 }},
		{mutate: func(c *Config) { c.Channels = -1 }},
		{mutate: func(c *Config) { c.DIMMsPerChannel = 0 }},
		{mutate: func(c *Config) { c.BanksPerRank = 0 }},
		{mutate: func(c *Config) { c.BanksPerRank = 65 }, want: "BanksPerRank"},
		{mutate: func(c *Config) { c.RowBytes = 32 }},
		{mutate: func(c *Config) { c.RowsPerBank = 0 }},
		{mutate: func(c *Config) { c.MemPowerFraction = 0 }},
		{mutate: func(c *Config) { c.MemPowerFraction = 1 }},
		{mutate: func(c *Config) { c.Policy.EpochLength = 0 }},
		{mutate: func(c *Config) { c.Policy.ProfilingLength = 10 * Millisecond }},
		{mutate: func(c *Config) { c.WritebackQueueCap = 0 }},
		{mutate: func(c *Config) { c.DecoupledDevFreq = 123 }},
	}
	for i, m := range mutations {
		c := Default()
		m.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		} else if !strings.Contains(err.Error(), m.want) {
			t.Errorf("mutation %d: error %q does not name %s", i, err, m.want)
		}
	}
	c := Default()
	c.BanksPerRank = 64
	if err := c.Validate(); err != nil {
		t.Errorf("BanksPerRank = 64 rejected: %v", err)
	}
}

func TestCPUCycleConversion(t *testing.T) {
	c := Default()
	// 4 GHz -> 0.25 ns per cycle.
	if got := c.CPUCyclesToTime(4); got != Nanosecond {
		t.Errorf("4 CPU cycles = %v, want 1 ns", got)
	}
	if got := c.TimeToCPUCycles(Nanosecond); got != 4 {
		t.Errorf("1 ns = %g CPU cycles, want 4", got)
	}
}

func TestAddressMapperRoundTrip(t *testing.T) {
	c := Default()
	m := NewAddressMapper(&c)
	f := func(line uint64) bool {
		line %= m.Lines()
		loc := m.Map(line)
		if loc.Channel < 0 || loc.Channel >= c.Channels ||
			loc.Rank < 0 || loc.Rank >= c.RanksPerChannel() ||
			loc.Bank < 0 || loc.Bank >= c.BanksPerRank ||
			loc.Row < 0 || loc.Row >= c.RowsPerBank ||
			loc.Col < 0 || loc.Col >= c.LinesPerRow() {
			return false
		}
		return m.Unmap(loc) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddressMapperInterleaving(t *testing.T) {
	c := Default()
	m := NewAddressMapper(&c)
	// Consecutive lines must interleave channels.
	for i := 0; i < 8; i++ {
		if got := m.Map(uint64(i)).Channel; got != i%c.Channels {
			t.Errorf("line %d on channel %d, want %d", i, got, i%c.Channels)
		}
	}
	// Lines with stride = Channels stay in one channel and one row
	// until the row is exhausted.
	first := m.Map(0)
	for i := 1; i < c.LinesPerRow(); i++ {
		loc := m.Map(uint64(i * c.Channels))
		if loc.Channel != first.Channel || loc.Row != first.Row ||
			loc.Bank != first.Bank || loc.Rank != first.Rank {
			t.Fatalf("line %d left the row: %+v vs %+v", i*c.Channels, loc, first)
		}
		if loc.Col != i {
			t.Fatalf("line %d has col %d, want %d", i*c.Channels, loc.Col, i)
		}
	}
	// The next line after the row moves to the next bank.
	next := m.Map(uint64(c.LinesPerRow() * c.Channels))
	if next.Bank == first.Bank && next.Rank == first.Rank && next.Row == first.Row {
		t.Error("row boundary did not advance bank")
	}
}

func TestLineForRow(t *testing.T) {
	c := Default()
	m := NewAddressMapper(&c)
	line := m.LineForRow(2, 1, 5, 1000, 17)
	loc := m.Map(line)
	want := Location{Channel: 2, Rank: 1, Bank: 5, Row: 1000, Col: 17}
	if loc != want {
		t.Errorf("LineForRow round trip: got %+v, want %+v", loc, want)
	}
}

func TestPowerdownModeString(t *testing.T) {
	if PowerdownNone.String() != "none" || PowerdownFast.String() != "fast-pd" ||
		PowerdownSlow.String() != "slow-pd" {
		t.Error("powerdown mode names wrong")
	}
	if PowerdownMode(42).String() == "" {
		t.Error("unknown mode must still render")
	}
}
