package memscale

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// goldenConfigs are the five pinned determinism cases from
// TestGoldenDeterminism. The four-epoch MID1 run is the longest, so
// its governor carries slack across the most epoch boundaries.
func goldenConfigs() []RunConfig {
	return []RunConfig{
		{Mix: "MEM1", Policy: "MemScale", Epochs: 2},
		{Mix: "ILP1", Policy: "Static", Epochs: 2},
		{Mix: "MID2", Policy: "MemScale + Fast-PD", Epochs: 2},
		{Mix: "MID3", Policy: "Slow-PD", Epochs: 2},
		{Mix: "MID1", Policy: "MemScale", Epochs: 4},
	}
}

// goldenRuns are the plain runs of goldenConfigs, each simulated once
// and shared by TestGoldenDeterminism and TestForkEquivalence.
var goldenRuns = func() (runs []func() (RunSummary, error)) {
	for _, rc := range goldenConfigs() {
		runs = append(runs, sync.OnceValues(func() (RunSummary, error) { return Run(rc) }))
	}
	return runs
}()

// TestGoldenDeterminism pins bit-exact RunSummary values captured on
// the pre-rewrite event core (container/heap queue, closure handlers,
// slice-based controller queues). The pooled flat-heap core, the
// ring-buffer controller queues, and the pre-bound callbacks must
// reproduce every energy total, CPI ratio, and frequency residency to
// the last bit — the rewrite is a pure mechanical
// optimization with no behavioural freedom.
func TestGoldenDeterminism(t *testing.T) {
	type golden struct {
		mem   uint64 // Float64bits of MemoryEnergyJ
		sys   uint64 // Float64bits of SystemEnergyJ
		avg   uint64 // Float64bits of AvgCPIIncrease
		worst uint64 // Float64bits of WorstCPIIncrease
		dur   uint64 // Float64bits of DurationSeconds
		freqs map[int]uint64
	}
	cases := []golden{ // cases[i] pins goldenConfigs()[i]
		{
			mem: 0x3fe2a56c39969cb4, sys: 0x3ff64100fc8c0392,
			avg: 0x3fadac19239699a0, worst: 0x3faf515354537280,
			dur: 0x3f847ae147ae147b,
			freqs: map[int]uint64{
				667: 0x3f747ae147ae147b,
				733: 0x3f73404ea4a8c155,
				800: 0x3f33a92a30553261,
			},
		},
		{
			mem: 0x3fc97dabc0462ab5, sys: 0x3fe29eae20c06da2,
			avg: 0x3f8eb9c1ef33df40, worst: 0x3f9b937cab60ee80,
			dur: 0x3f847ae147ae147b,
			freqs: map[int]uint64{
				467: 0x3f83dd97f62b6ae8,
				800: 0x3f33a92a30553261,
			},
		},
		{
			mem: 0x3fd36b4cbfdefaf5, sys: 0x3fea7f689761af20,
			avg: 0x3fbb5a283b7c7124, worst: 0x3fc1dee22f885048,
			dur: 0x3f847ae147ae147b,
			freqs: map[int]uint64{
				467: 0x3f83dd97f62b6ae8,
				800: 0x3f33a92a30553261,
			},
		},
		{
			mem: 0x3fd68e65693298a3, sys: 0x3fea7ac6c33d3b5a,
			avg: 0x3fb75d475b99c25c, worst: 0x3fb97b1e317bee60,
			dur: 0x3f847ae147ae147b,
			freqs: map[int]uint64{
				800: 0x3f847ae147ae147b,
			},
		},
		{
			mem: 0x3fddeff379c5c182, sys: 0x3ff6b00b4c8e61ae,
			avg: 0x3fb00c8d43003e8c, worst: 0x3fb4e62aeece7560,
			dur: 0x3f947ae147ae147b,
			freqs: map[int]uint64{
				333: 0x3f8e1b089a027525,
				400: 0x3f747ae147ae147b,
				800: 0x3f33a92a30553261,
			},
		},
	}
	for i, g := range cases {
		rc := goldenConfigs()[i]
		t.Run(rc.Mix+"/"+rc.Policy, func(t *testing.T) {
			t.Parallel()
			sum, err := goldenRuns[i]()
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got float64, want uint64) {
				if math.Float64bits(got) != want {
					t.Errorf("%s = %v (%#x), want bits %#x", name, got, math.Float64bits(got), want)
				}
			}
			check("MemoryEnergyJ", sum.MemoryEnergyJ, g.mem)
			check("SystemEnergyJ", sum.SystemEnergyJ, g.sys)
			check("AvgCPIIncrease", sum.AvgCPIIncrease, g.avg)
			check("WorstCPIIncrease", sum.WorstCPIIncrease, g.worst)
			check("DurationSeconds", sum.DurationSeconds, g.dur)
			if len(sum.FreqSeconds) != len(g.freqs) {
				t.Errorf("FreqSeconds has %d entries, want %d: %v", len(sum.FreqSeconds), len(g.freqs), sum.FreqSeconds)
			}
			for f, want := range g.freqs {
				check(fmt.Sprintf("FreqSeconds[%d]", f), sum.FreqSeconds[f], want)
			}
			if sum.Events == 0 {
				t.Error("Events = 0; the fired-event count must be exported")
			}
			if sum.InvariantChecks == 0 {
				t.Error("InvariantChecks = 0; the runtime invariant plane must be active on golden configs")
			}
		})
	}
}
