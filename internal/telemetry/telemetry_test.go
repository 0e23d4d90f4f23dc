package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"memscale/internal/config"
	"memscale/internal/dram"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetEpoch(3)
	r.FreqTransition(0, 1, 800, 400, 100)
	r.PowerdownEnter(0, 1, 0, true)
	r.PowerdownExit(0, 1, 0)
	r.Refresh(0, 1, 0, 10)
	r.ObserveReadLatency(100)
	r.ObserveQueueDepth(4)
	r.Slack(0, 0, 0.1, 0.2)
	r.Decision(0, 800, 400, 1.2, 1.3)
	r.ObserveEpochHost(1000)
	r.PowerInterval(5, dram.Account{}, Energy{})
	r.AddEpoch(EpochSnapshot{})
	if r.EventsEnabled() {
		t.Error("nil recorder reports events enabled")
	}
	if r.Epochs() != nil {
		t.Error("nil recorder getters must return zero values")
	}
	if r.Export(RunMeta{}, nil) != nil {
		t.Error("nil recorder Export must return nil")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram("h", "ns", []float64{10, 20, 40})
	if len(h.Counts) != 4 {
		t.Fatalf("counts = %d, want bounds+1 = 4", len(h.Counts))
	}
	for _, v := range []float64{5, 10, 15, 35, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // <=10: {5,10}, <=20: {15}, <=40: {35}, overflow: {100}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count != 5 || h.Min != 5 || h.Max != 100 {
		t.Errorf("count/min/max = %d/%g/%g", h.Count, h.Min, h.Max)
	}
	if got := h.Mean(); got != 33 {
		t.Errorf("mean = %g, want 33", got)
	}
	if q := h.Quantile(0.5); q != 20 {
		t.Errorf("p50 = %g, want 20", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("p100 = %g, want observed max 100", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram("h", "ns", []float64{10, 20})
	b := NewHistogram("h", "ns", []float64{10, 20})
	a.Observe(5)
	b.Observe(15)
	b.Observe(100)
	if !a.Merge(b) {
		t.Fatal("matching layouts must merge")
	}
	if a.Count != 3 || a.Min != 5 || a.Max != 100 || a.Sum != 120 {
		t.Errorf("merged count/min/max/sum = %d/%g/%g/%g", a.Count, a.Min, a.Max, a.Sum)
	}
	c := NewHistogram("h", "ns", []float64{10})
	if a.Merge(c) {
		t.Error("mismatched layouts must refuse to merge")
	}
}

func TestEventRingDropOldest(t *testing.T) {
	r := NewRecorder(Options{Events: true, RingSize: 3})
	for i := 0; i < 5; i++ {
		r.Refresh(config.Time(i), 0, i, 1)
	}
	out := r.Export(RunMeta{}, nil)
	if len(out.Events) != 3 {
		t.Fatalf("retained %d events, want 3", len(out.Events))
	}
	if out.DroppedEvents != 2 {
		t.Errorf("dropped = %d, want 2", out.DroppedEvents)
	}
	// Newest three survive, in arrival order.
	for i, ev := range out.Events {
		if ev.Rank != i+2 {
			t.Errorf("event %d has rank %d, want %d", i, ev.Rank, i+2)
		}
	}
}

// TestRecordOrder pins the one record path: events export in the
// order they were recorded, whatever their channels, and the read
// latency Sum is the in-order float sum of the observations.
func TestRecordOrder(t *testing.T) {
	r := NewRecorder(Options{Events: true})
	r.PowerdownExit(1000, 1, 2)
	r.PowerdownEnter(1000, 0, 3, false)
	out := r.Export(RunMeta{}, nil)
	if len(out.Events) != 2 {
		t.Fatalf("exported %d events, want 2", len(out.Events))
	}
	if e := out.Events[0]; e.Kind != EvPowerdownExit || e.Channel != 1 || e.Rank != 2 {
		t.Errorf("first event = %+v, want channel 1's powerdown_exit", e)
	}
	if e := out.Events[1]; e.Kind != EvPowerdownEnter || e.Channel != 0 || e.Rank != 3 {
		t.Errorf("second event = %+v, want channel 0's powerdown_enter", e)
	}

	// Float addition is not associative: these latencies, grouped as
	// if read on channels 0, 1, 0, 1 and summed per channel, total
	// 701.4 ns; summed in order, 701.3999999999999 ns.
	lat := []config.Time{100_100, 200_300, 300_700, 100_300}
	var want float64
	for _, d := range lat {
		r.ObserveReadLatency(d)
		want += d.Nanoseconds()
	}
	ns := func(i int) float64 { return lat[i].Nanoseconds() }
	if grouped := (ns(0) + ns(2)) + (ns(1) + ns(3)); grouped == want {
		t.Fatalf("latencies do not tell the orders apart: both sum to %v", want)
	}
	if got := r.Export(RunMeta{}, nil).Histogram("read_latency").Sum; got != want {
		t.Errorf("read latency Sum = %v, want in-order sum %v", got, want)
	}
}

// TestCSVSinkFormat pins WriteEventsCSV's header and row layout.
func TestCSVSinkFormat(t *testing.T) {
	r := NewRecorder(Options{Events: true})
	r.SetEpoch(7)
	r.FreqTransition(1000, 1, 800, 400, 42)
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, []*RunExport{r.Export(RunMeta{}, nil)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != EventCSVHeader {
		t.Fatalf("csv = %q", buf.String())
	}
	if want := "freq_transition,1000,7,1,-1,-1,800,400,42,0,0"; lines[1] != want {
		t.Errorf("row = %q, want %q", lines[1], want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(Options{Events: true})
	r.SetEpoch(0)
	r.ObserveReadLatency(60 * config.Nanosecond)
	r.ObserveQueueDepth(3)
	r.Decision(100, 800, 400, 1.5, 1.6)
	r.PowerInterval(5*config.Millisecond,
		dram.Account{PrechargeStandby: 5 * config.Millisecond},
		Energy{Background: 0.25, MC: 0.5})
	r.AddEpoch(EpochSnapshot{
		Index: 0, End: 5 * config.Millisecond, Freq: 400,
		CoreCPI: []float64{1.5, 1.7}, ChannelUtil: []float64{0.25},
		Energy: Energy{Background: 0.25, MC: 0.5},
		Reads:  12,
	})
	exp := r.Export(RunMeta{Mix: "MID1", Policy: "MemScale", Gamma: 0.1}, map[int]float64{400: 0.005})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, exp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("read %d runs, want 1", len(back))
	}
	got := back[0]
	if got.Meta.Mix != "MID1" || got.Meta.Policy != "MemScale" || got.Meta.Gamma != 0.1 {
		t.Errorf("meta = %+v, want %+v", got.Meta, exp.Meta)
	}
	if got.Energy != exp.Energy || got.Residency != exp.Residency {
		t.Error("energy/residency totals did not survive the round trip")
	}
	if len(got.Epochs) != 1 || got.Epochs[0].Reads != 12 || got.Epochs[0].Freq != 400 {
		t.Errorf("epochs = %+v", got.Epochs)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != EvDecision {
		t.Errorf("events = %+v", got.Events)
	}
	if h := got.Histogram("read_latency"); h == nil || h.Count != 1 {
		t.Error("read_latency histogram missing after round trip")
	}
	if got.FreqSeconds[400] != 0.005 {
		t.Errorf("freq seconds = %v", got.FreqSeconds)
	}
}

func TestReadJSONLRejectsOrphans(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"type":"epoch","epoch":{"index":0}}`)); err == nil {
		t.Error("epoch before any run must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"type":"nope"}`)); err == nil {
		t.Error("unknown record type must error")
	}
}

func TestRollupMerges(t *testing.T) {
	mk := func(mix string, reads float64) *RunExport {
		r := NewRecorder(Options{})
		r.ObserveReadLatency(config.Time(reads))
		r.FreqTransitions.Add(2)
		r.PowerInterval(5*config.Millisecond,
			dram.Account{ActiveStandby: 2 * config.Millisecond},
			Energy{MC: 1})
		r.AddEpoch(EpochSnapshot{})
		return r.Export(RunMeta{Mix: mix}, map[int]float64{800: 0.005})
	}
	ro := NewRollup()
	ro.Add(mk("MID1", 60000))
	ro.Add(mk("MEM2", 80000))
	ro.Add(nil) // runs without telemetry are skipped

	if ro.Runs != 2 || ro.Epochs != 2 {
		t.Errorf("runs/epochs = %d/%d", ro.Runs, ro.Epochs)
	}
	if ro.Energy.MC != 2 {
		t.Errorf("energy.MC = %g, want 2", ro.Energy.MC)
	}
	if ro.Residency.ActiveStandby != 4*config.Millisecond {
		t.Errorf("residency = %v", ro.Residency)
	}
	if ro.Counters["freq_transitions"] != 4 {
		t.Errorf("counters = %v", ro.Counters)
	}
	if ro.FreqSeconds[800] != 0.01 {
		t.Errorf("freq seconds = %v", ro.FreqSeconds)
	}
	if h := ro.Histograms["read_latency"]; h == nil || h.Count != 2 {
		t.Error("histograms did not merge")
	}
}

func TestResidencyFractionsAndColumns(t *testing.T) {
	s := EpochSnapshot{Residency: dram.Account{
		ActiveStandby:    1 * config.Millisecond,
		PrechargeStandby: 2 * config.Millisecond,
		PrechargePDSlow:  1 * config.Millisecond,
	}}
	fr := s.ResidencyFractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if sum != 1 {
		t.Errorf("fractions sum to %g, want 1", sum)
	}
	if fr[0] != 0.25 || fr[1] != 0.5 || fr[4] != 0.25 {
		t.Errorf("fractions = %v", fr)
	}
	if ResidencyColumns[4] != "precharge_pd_slow" {
		t.Errorf("column order changed: %v", ResidencyColumns)
	}
}

func TestReportViews(t *testing.T) {
	r := NewRecorder(Options{Events: true})
	r.SetEpoch(0)
	r.Decision(300*config.Microsecond, 800, 400, 1.5, 1.6)
	r.AddEpoch(EpochSnapshot{
		Index: 0, End: 5 * config.Millisecond, Freq: 400,
		CoreCPI: []float64{1.6}, ChannelUtil: []float64{0.2},
		Residency: dram.Account{PrechargeStandby: 5 * config.Millisecond},
	})
	r.ObserveReadLatency(60 * config.Nanosecond)
	exp := r.Export(RunMeta{Mix: "MID3", Policy: "MemScale"}, map[int]float64{400: 0.005})
	exp.DurationSeconds = 0.005
	exports := []*RunExport{exp}

	var res, lat, dec, freq, sum bytes.Buffer
	if err := WriteResidencyCSV(&res, exports); err != nil {
		t.Fatal(err)
	}
	if err := WriteLatencyCSV(&lat, exports); err != nil {
		t.Fatal(err)
	}
	if err := WriteDecisionsCSV(&dec, exports); err != nil {
		t.Fatal(err)
	}
	if err := WriteFreqCSV(&freq, exports); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummary(&sum, exports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "MID3,MemScale,0,5.000,400") {
		t.Errorf("residency csv:\n%s", res.String())
	}
	if !strings.Contains(dec.String(), "800,400,1.5000,1.6000") {
		t.Errorf("decisions csv:\n%s", dec.String())
	}
	if !strings.Contains(freq.String(), "400,0.005000,1.0000") {
		t.Errorf("freq csv:\n%s", freq.String())
	}
	if !strings.Contains(lat.String(), "MID3,MemScale,75,1") {
		t.Errorf("latency csv:\n%s", lat.String())
	}
	if !strings.Contains(sum.String(), "MID3/MemScale") {
		t.Errorf("summary:\n%s", sum.String())
	}
}
