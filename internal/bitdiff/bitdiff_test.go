package bitdiff

import (
	"math"
	"strings"
	"testing"

	"memscale/internal/telemetry"
)

type sample struct {
	E     float64
	CPI   []float64
	Freq  map[int]float64
	Count uint64
	Tel   *telemetry.RunExport
}

func TestDiff(t *testing.T) {
	base := func() sample {
		h := telemetry.NewHistogram("epoch_host", "us", []float64{1, 10})
		h.Observe(5)
		return sample{E: 0, CPI: []float64{1.5, 2}, Freq: map[int]float64{800: 0.01}, Count: 3,
			Tel: &telemetry.RunExport{Epochs: []telemetry.EpochSnapshot{{HostNs: 7}}, Histograms: []*telemetry.Histogram{h}}}
	}
	if d := Diff(base(), base()); d != "" {
		t.Errorf("identical values differ at %s", d)
	}
	for _, c := range []struct {
		edit func(*sample)
		want string
		skip []string
	}{
		{func(s *sample) { s.E = math.Copysign(0, -1) }, "E: ", nil},
		{func(s *sample) { s.CPI[1] = math.Nextafter(2, 3) }, "CPI[1]: ", nil},
		{func(s *sample) { s.Freq = map[int]float64{667: 0.01} }, "Freq[800]: missing", nil},
		{func(s *sample) { s.Count++ }, "Count: 3 vs 4", nil},
		{func(s *sample) { s.Count++ }, "", []string{"Count"}},
		{func(s *sample) { s.Tel.Epochs[0].HostNs = 9; s.Tel.Histograms[0].Observe(50) }, "", nil},
		{func(s *sample) { s.Tel.DurationSeconds = 1 }, "Tel.jsonl[0]: ", nil},
	} {
		s := base()
		c.edit(&s)
		d := Diff(base(), s, c.skip...)
		if (c.want == "") != (d == "") || !strings.HasPrefix(d, c.want) {
			t.Errorf("Diff = %q, want prefix %q", d, c.want)
		}
	}
}
