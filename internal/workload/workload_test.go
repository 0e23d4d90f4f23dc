package workload

import (
	"errors"
	"math"
	"testing"

	"memscale/internal/config"
	"memscale/internal/trace"
)

func TestAllAppsValid(t *testing.T) {
	for _, name := range AppNames() {
		p, err := App(name)
		if err != nil {
			t.Fatalf("App(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
	}
	if _, err := App("nosuchapp"); err == nil {
		t.Error("unknown app must error")
	}
}

func TestMixesCoverTable1(t *testing.T) {
	if len(Mixes) != 12 {
		t.Fatalf("have %d mixes, want 12", len(Mixes))
	}
	wantOrder := []string{
		"ILP1", "ILP2", "ILP3", "ILP4",
		"MID1", "MID2", "MID3", "MID4",
		"MEM1", "MEM2", "MEM3", "MEM4",
	}
	for i, name := range Names() {
		if name != wantOrder[i] {
			t.Errorf("mix %d = %s, want %s", i, name, wantOrder[i])
		}
	}
	for _, m := range Mixes {
		for _, a := range m.Apps {
			if _, err := App(a); err != nil {
				t.Errorf("mix %s references unknown app %q", m.Name, a)
			}
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("MID3")
	if err != nil {
		t.Fatal(err)
	}
	if m.Apps != [4]string{"apsi", "bzip2", "ammp", "gap"} {
		t.Errorf("MID3 apps = %v", m.Apps)
	}
	// The channel-interleaved (/ilvK) and channel-partitioned (/part)
	// variants are retired: every mix interleaves its pages across all
	// channels.
	for _, name := range []string{"MEM9", "MEM1/ilv2", "MEM1/part"} {
		if _, err := ByName(name); !errors.Is(err, ErrUnknownMix) {
			t.Errorf("ByName(%q) err = %v, want ErrUnknownMix", name, err)
		}
	}
}

func TestByClass(t *testing.T) {
	for class, want := range map[Class]int{ClassILP: 4, ClassMID: 4, ClassMEM: 4} {
		got := ByClass(class)
		if len(got) != want {
			t.Errorf("class %v has %d mixes", class, len(got))
		}
		for _, m := range got {
			if m.Class != class {
				t.Errorf("mix %s in wrong class bucket", m.Name)
			}
		}
	}
	if ClassILP.String() != "ILP" || ClassMID.String() != "MID" || ClassMEM.String() != "MEM" {
		t.Error("class names wrong")
	}
}

// TestMixRPKIMatchesTable1 checks that the calibrated profiles
// reproduce the Table 1 aggregate miss rates. The paper's RPKI/WPKI
// come from real traces with slightly unequal instruction counts, so
// tolerances are loose but meaningful: RPKI within 20%, and the
// class ordering must be strict (ILP << MID << MEM).
func TestMixRPKIMatchesTable1(t *testing.T) {
	for _, m := range Mixes {
		got := m.ExpectedRPKI()
		rel := math.Abs(got-m.PaperRPKI) / m.PaperRPKI
		if rel > 0.20 {
			t.Errorf("%s: expected RPKI %.2f vs paper %.2f (%.0f%% off)",
				m.Name, got, m.PaperRPKI, rel*100)
		}
	}
	// Class separation.
	maxILP, maxMID := 0.0, 0.0
	minMID, minMEM := math.Inf(1), math.Inf(1)
	for _, m := range Mixes {
		r := m.ExpectedRPKI()
		switch m.Class {
		case ClassILP:
			maxILP = math.Max(maxILP, r)
		case ClassMID:
			maxMID = math.Max(maxMID, r)
			minMID = math.Min(minMID, r)
		case ClassMEM:
			minMEM = math.Min(minMEM, r)
		}
	}
	if maxILP >= minMID || maxMID >= minMEM {
		t.Errorf("class RPKI ordering broken: ILP max %.2f, MID [%.2f,%.2f], MEM min %.2f",
			maxILP, minMID, maxMID, minMEM)
	}
}

// TestGeneratedRPKIMatchesExpected drives the real generators and
// verifies the streams deliver the calibrated rates.
func TestGeneratedRPKIMatchesExpected(t *testing.T) {
	cfg := config.Default()
	for _, name := range []string{"ILP2", "MID1", "MEM1"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := m.Streams(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(streams) != cfg.Cores {
			t.Fatalf("%s: %d streams, want %d", name, len(streams), cfg.Cores)
		}
		// Every core retires the same instruction budget, as in the
		// simulator, so the aggregate is the arithmetic mean of the
		// per-app rates.
		const perCoreInstr = 40_000_000
		var instr, reads uint64
		for _, s := range streams {
			for {
				s.Next()
				if in, _, _ := s.Stats(); in >= perCoreInstr {
					break
				}
			}
			in, rd, _ := s.Stats()
			instr += in
			reads += rd
		}
		got := float64(reads) / float64(instr) * 1000
		want := m.ExpectedRPKIOver(perCoreInstr)
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s: generated RPKI %.3f, calibrated %.3f", name, got, want)
		}
	}
}

func TestAssignmentStripes(t *testing.T) {
	m, _ := ByName("MEM1")
	counts := map[string]int{}
	for core := 0; core < 16; core++ {
		counts[m.Assignment(core)]++
	}
	for _, a := range m.Apps {
		if counts[a] != 4 {
			t.Errorf("app %s on %d cores, want 4", a, counts[a])
		}
	}
	// 8-core machines get two instances of each.
	counts = map[string]int{}
	for core := 0; core < 8; core++ {
		counts[m.Assignment(core)]++
	}
	for _, a := range m.Apps {
		if counts[a] != 2 {
			t.Errorf("8-core: app %s on %d cores, want 2", a, counts[a])
		}
	}
}

func TestStreamsDeterministicAcrossCalls(t *testing.T) {
	cfg := config.Default()
	m, _ := ByName("MID2")
	s1, err := m.Streams(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := m.Streams(&cfg)
	for core := range s1 {
		for i := 0; i < 50; i++ {
			if s1[core].Next() != s2[core].Next() {
				t.Fatalf("core %d stream not reproducible", core)
			}
		}
	}
	// Different cores running the same app must differ.
	m3, _ := ByName("MEM1")
	s3, _ := m3.Streams(&cfg)
	a, b := s3[0], s3[4] // both run "swim"
	if a.Name() != b.Name() {
		t.Fatal("cores 0 and 4 should run the same app")
	}
	same := 0
	for i := 0; i < 50; i++ {
		if a.Next().Loc == b.Next().Loc {
			same++
		}
	}
	if same > 5 {
		t.Errorf("replicated app instances too correlated: %d/50 identical lines", same)
	}
}

func TestApsiHasPhaseChange(t *testing.T) {
	p, err := App("apsi")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 2 {
		t.Fatalf("apsi has %d phases, want 2", len(p.Phases))
	}
	if p.Phases[1].MPKI <= 5*p.Phases[0].MPKI {
		t.Error("apsi phase 2 must be much more memory intensive")
	}
}

func TestUniqueApps(t *testing.T) {
	m, _ := ByName("ILP1")
	got := m.UniqueApps()
	if len(got) != 4 {
		t.Errorf("ILP1 unique apps = %v", got)
	}
}

// TestAccessLocations draws every Table 1 profile on the paper's
// mapper and on a non-power-of-two mapper (3 channels). Every read and
// writeback location must lie inside the machine and survive
// Map(Unmap(loc)) unchanged: the controller queues the stream's
// location as drawn, which must be the location its line address
// decodes to.
func TestAccessLocations(t *testing.T) {
	paper := config.Default()
	odd := config.Default()
	odd.Channels = 3
	if err := odd.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"paper", paper},
		{"3ch", odd},
	} {
		cfg := tc.cfg
		m := config.NewAddressMapper(&cfg)
		for i, name := range AppNames() {
			p, err := App(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := trace.NewStream(p, m, trace.Seed("locations", name, i))
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, loc config.Location) {
				t.Helper()
				inside := loc.Channel >= 0 && loc.Channel < cfg.Channels &&
					loc.Rank >= 0 && loc.Rank < cfg.RanksPerChannel() &&
					loc.Bank >= 0 && loc.Bank < cfg.BanksPerRank &&
					loc.Row >= 0 && loc.Row < cfg.RowsPerBank &&
					loc.Col >= 0 && loc.Col < cfg.LinesPerRow()
				if !inside {
					t.Fatalf("%s %s: %s location %+v outside the machine", tc.name, name, what, loc)
				}
				if back := m.Map(m.Unmap(loc)); back != loc {
					t.Fatalf("%s %s: %s location %+v decodes back as %+v", tc.name, name, what, loc, back)
				}
			}
			for k := 0; k < 2000; k++ {
				a := s.Next()
				check("read", a.Loc)
				if a.Writeback {
					check("writeback", a.WBLoc)
				}
			}
		}
	}
}
