package trace

import (
	"math"
	"testing"

	"memscale/internal/config"
)

func TestZeroWPKINeverWritesBack(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "ro", Phases: []Phase{{BaseCPI: 1, MPKI: 5, WPKI: 0, RowLocality: 0.2}}}
	s := mustStream(t, p, m, 4)
	for i := 0; i < 5000; i++ {
		if s.Next().Writeback {
			t.Fatal("writeback generated with WPKI = 0")
		}
	}
	_, _, wbs := s.Stats()
	if wbs != 0 {
		t.Errorf("writeback counter = %d", wbs)
	}
}

func TestHotRowsZeroUsesWholeBank(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "wide", Phases: []Phase{{BaseCPI: 1, MPKI: 10, RowLocality: 0}}}
	s := mustStream(t, p, m, 6)
	maxRow := 0
	for i := 0; i < 20000; i++ {
		if row := s.Next().Loc.Row; row > maxRow {
			maxRow = row
		}
	}
	cfg := config.Default()
	// With the whole bank available, rows well beyond any typical
	// HotRows bound must appear.
	if maxRow < cfg.RowsPerBank/4 {
		t.Errorf("max row touched = %d of %d; footprint seems clamped", maxRow, cfg.RowsPerBank)
	}
}

func TestGapDistributionIsExponentialish(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "exp", Phases: []Phase{{BaseCPI: 1, MPKI: 10, RowLocality: 0}}}
	s := mustStream(t, p, m, 10)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		g := float64(s.Next().Gap)
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	// Exponential: std dev ~= mean (coefficient of variation ~1).
	cv := math.Sqrt(variance) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("gap coefficient of variation = %.2f, want ~1 (exponential)", cv)
	}
}

func TestMultiPhaseBoundariesExact(t *testing.T) {
	m := testMapper()
	p := Profile{Name: "tri", Phases: []Phase{
		{Instructions: 50_000, BaseCPI: 1, MPKI: 10},
		{Instructions: 50_000, BaseCPI: 2, MPKI: 1},
		{BaseCPI: 3, MPKI: 20},
	}}
	s := mustStream(t, p, m, 12)
	var seen [3]uint64
	for seen[2] < 10_000 {
		a := s.Next()
		// Clamped draws never cross boundaries, so each access belongs
		// entirely to one phase, identified by its BaseCPI.
		switch a.BaseCPI {
		case 1:
			seen[0] += a.Gap
		case 2:
			seen[1] += a.Gap
		case 3:
			seen[2] += a.Gap
		default:
			t.Fatalf("unexpected BaseCPI %g", a.BaseCPI)
		}
	}
	if seen[0] != 50_000 {
		t.Errorf("phase 0 ran %d instructions, want exactly 50000 (clamped)", seen[0])
	}
	if seen[1] != 50_000 {
		t.Errorf("phase 1 ran %d instructions, want exactly 50000", seen[1])
	}
}

func TestStreamIndependentOfReadOrder(t *testing.T) {
	// Interleaving two streams must not change either sequence
	// (no shared state).
	m := testMapper()
	p := validProfile()
	a1 := mustStream(t, p, m, 100)
	b1 := mustStream(t, p, m, 200)
	var aSeq, bSeq []Access
	for i := 0; i < 100; i++ {
		aSeq = append(aSeq, a1.Next())
		bSeq = append(bSeq, b1.Next())
	}
	a2 := mustStream(t, p, m, 100)
	b2 := mustStream(t, p, m, 200)
	for i := 0; i < 100; i++ {
		if bSeq[i] != b2.Next() {
			t.Fatal("stream b changed under different interleaving")
		}
	}
	for i := 0; i < 100; i++ {
		if aSeq[i] != a2.Next() {
			t.Fatal("stream a changed under different interleaving")
		}
	}
}
