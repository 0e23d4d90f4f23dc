package telemetry

// Typed collectors: counters, gauges, and fixed-bucket histograms.
// They are deliberately plain structs with value-receiver snapshots —
// a run's recorder is confined to the single goroutine driving its
// simulation, so no collector needs atomics or locks. Cross-run
// aggregation happens after the runs complete (see Rollup).

// Counter is a monotonically increasing event count.
type Counter struct {
	Name string
	N    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.N += n }

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	Name string
	V    float64
	Set_ bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.V, g.Set_ = v, true }

// Histogram is a fixed-bucket histogram. Bounds are upper bucket
// boundaries (inclusive); one implicit overflow bucket catches values
// above the last bound, so len(Counts) == len(Bounds)+1. Bounds are
// fixed at construction: merging two histograms of the same name is a
// plain element-wise count addition.
type Histogram struct {
	Name   string
	Unit   string // display unit of observed values ("ns", "us", ...)
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram builds a histogram over the given upper bounds, which
// must be sorted ascending.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	return &Histogram{
		Name:   name,
		Unit:   unit,
		Bounds: bounds,
		Counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0..1):
// the bound of the bucket where the cumulative count crosses q. The
// overflow bucket reports the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Merge adds o's counts into h. Histograms merge only when their
// bucket layout matches; mismatched layouts report false and leave h
// unchanged.
func (h *Histogram) Merge(o *Histogram) bool {
	if len(h.Bounds) != len(o.Bounds) {
		return false
	}
	for i := range h.Bounds {
		if h.Bounds[i] != o.Bounds[i] {
			return false
		}
	}
	if o.Count > 0 {
		if h.Count == 0 || o.Min < h.Min {
			h.Min = o.Min
		}
		if h.Count == 0 || o.Max > h.Max {
			h.Max = o.Max
		}
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	return true
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	out := *h
	out.Bounds = append([]float64(nil), h.Bounds...)
	out.Counts = append([]uint64(nil), h.Counts...)
	return &out
}

// Standard bucket layouts. Fixed layouts keep per-observation cost at
// a short linear scan and make cross-run merges exact.
var (
	// ReadLatencyBoundsNs covers DDR3 access latencies from an open-row
	// hit (~30 ns) through deep queueing (~µs).
	ReadLatencyBoundsNs = []float64{50, 75, 100, 150, 200, 300, 500, 750, 1000, 2000, 5000}

	// QueueDepthBounds covers the controller's outstanding-request
	// count at request arrival.
	QueueDepthBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}

	// EpochHostBoundsUs covers the host wall-clock cost of simulating
	// one 5 ms OS quantum.
	EpochHostBoundsUs = []float64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1e6}
)
