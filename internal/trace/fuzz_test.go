package trace

import (
	"math"
	"testing"
)

// FuzzProfileStream throws arbitrary phase parameters at the profile
// validator and, when a profile is accepted, at the stream generator.
// The contract: Validate never panics and never accepts NaN/Inf rates,
// and every accepted profile yields a stream whose accesses are well
// formed (positive gaps, finite CPI, addresses inside the mapped
// space, writebacks only when WPKI allows them).
func FuzzProfileStream(f *testing.F) {
	f.Add(uint64(0), 1.0, 2.0, 0.5, 0.5, 16, uint64(1))
	f.Add(uint64(100), 0.6, 18.9, 7.3, 0.9, 0, uint64(42))
	f.Add(uint64(0), math.NaN(), math.Inf(1), -1.0, 1.0, -3, uint64(0))
	f.Add(uint64(1), 1e300, 1e-300, 0.0, 0.999, 1, ^uint64(0))

	m := testMapper()
	f.Fuzz(func(t *testing.T, instr uint64, baseCPI, mpki, wpki, rowLoc float64,
		hotRows int, seed uint64) {

		p := Profile{Name: "fuzz", Phases: []Phase{
			{Instructions: instr, BaseCPI: baseCPI, MPKI: mpki, WPKI: wpki,
				RowLocality: rowLoc, HotRows: hotRows},
			{BaseCPI: 1, MPKI: 1},
		}}
		s, err := NewStream(p, m, seed)
		if err != nil {
			return
		}
		for _, v := range []float64{baseCPI, mpki, wpki, rowLoc} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Validate accepted non-finite value %g", v)
			}
		}
		lines := m.Lines()
		for i := 0; i < 200; i++ {
			a := s.Next()
			if a.Gap == 0 {
				t.Fatal("zero-instruction gap")
			}
			if a.BaseCPI <= 0 || math.IsInf(a.BaseCPI, 0) {
				t.Fatalf("access BaseCPI = %g", a.BaseCPI)
			}
			if line := m.Unmap(a.Loc); line >= lines || m.Map(line) != a.Loc {
				t.Fatalf("location %+v outside the %d-line space", a.Loc, lines)
			}
			if a.Writeback {
				if wpki == 0 && s.PhaseIndex() == 0 {
					t.Fatal("writeback generated with WPKI = 0")
				}
				if line := m.Unmap(a.WBLoc); line >= lines || m.Map(line) != a.WBLoc {
					t.Fatalf("writeback location %+v outside the space", a.WBLoc)
				}
			}
		}
	})
}
