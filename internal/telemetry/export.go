package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"memscale/internal/dram"
)

// SchemaVersion is the JSONL interchange format version stamped on
// every run record WriteJSONL emits, as "MAJOR.MINOR".
//
// Compatibility rule: minor bumps only ever add fields, which older
// readers ignore, so a reader accepts any stream whose major version
// matches its own (and streams without a version, which predate the
// stamp and read as "1.0"). A different major version means the record
// shapes changed incompatibly and ReadJSONL rejects the stream with a
// *SchemaVersionError.
const SchemaVersion = "1.1"

// schemaMajor returns the MAJOR component of a version string; the
// empty version is the pre-stamp "1.0".
func schemaMajor(v string) string {
	if v == "" {
		return "1"
	}
	if i := strings.IndexByte(v, '.'); i >= 0 {
		return v[:i]
	}
	return v
}

// SchemaVersionError reports a telemetry stream written by an
// incompatible (different-major) schema version.
type SchemaVersionError struct {
	Version string // the stream's schema_version
	Line    int    // 1-based line of the offending run record
}

func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("telemetry: line %d: unsupported schema version %q (this reader speaks %s; only matching major versions are compatible)",
		e.Line, e.Version, SchemaVersion)
}

// RunMeta identifies one exported run.
type RunMeta struct {
	Mix    string  `json:"mix"`
	Policy string  `json:"policy"`
	Gamma  float64 `json:"gamma"`

	Cores    int `json:"cores"`
	Channels int `json:"channels"`

	// CoreApps maps core index to application name.
	CoreApps []string `json:"core_apps,omitempty"`

	// NonMemPowerW is the calibrated rest-of-system power used by the
	// run.
	NonMemPowerW float64 `json:"nonmem_power_w"`
}

// RunExport is one run's complete telemetry: identity, rollup totals,
// collector snapshots, per-epoch snapshots, and the retained event
// stream. It is the unit of the JSONL interchange format consumed by
// memscale-report.
type RunExport struct {
	// SchemaVersion records the interchange format version the export
	// was written with. WriteJSONL stamps it automatically; an empty
	// value reads as the pre-versioning "1.0".
	SchemaVersion string `json:"schema_version,omitempty"`

	Meta RunMeta `json:"meta"`

	// DurationSeconds is the simulated run length, as accumulated by
	// the power layer's interval metering.
	DurationSeconds float64 `json:"duration_s"`

	// Energy and Residency are run totals; each equals the sum of the
	// corresponding per-epoch snapshot fields.
	Energy    Energy       `json:"energy_j"`
	Residency dram.Account `json:"residency_ps"`

	// FreqSeconds is the time spent at each bus frequency (MHz).
	FreqSeconds map[int]float64 `json:"freq_seconds,omitempty"`

	Counters   map[string]uint64  `json:"counters,omitempty"`
	Gauges     map[string]float64 `json:"gauges,omitempty"`
	Histograms []*Histogram       `json:"histograms,omitempty"`

	Epochs []EpochSnapshot `json:"-"`
	Events []Event         `json:"-"`

	// DroppedEvents counts the events the ring evicted to make room
	// for newer ones.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// Histogram returns the export's histogram with the given name, or
// nil.
func (e *RunExport) Histogram(name string) *Histogram {
	for _, h := range e.Histograms {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Export snapshots the recorder into a self-contained RunExport. The
// export carries the ring's retained events, which it drains, and the
// count the ring dropped. Safe on nil (returns nil).
func (r *Recorder) Export(meta RunMeta, freqSeconds map[int]float64) *RunExport {
	if r == nil {
		return nil
	}
	out := &RunExport{
		Meta:            meta,
		DurationSeconds: r.duration.Seconds(),
		Energy:          r.energy,
		Residency:       r.residency,
		FreqSeconds:     freqSeconds,
		Counters: map[string]uint64{
			r.FreqTransitions.Name: r.FreqTransitions.N,
			r.PowerdownEnters.Name: r.PowerdownEnters.N,
			r.PowerdownExits.Name:  r.PowerdownExits.N,
			r.Refreshes.Name:       r.Refreshes.N,
			r.Decisions.Name:       r.Decisions.N,
			r.SlackUpdates.Name:    r.SlackUpdates.N,
			r.PowerIntervals.Name:  r.PowerIntervals.N,
			r.FaultsInjected.Name:  r.FaultsInjected.N,
			r.DegradedEpochs.Name:  r.DegradedEpochs.N,
			r.NodesLost.Name:       r.NodesLost.N,
			r.NodesRecovered.Name:  r.NodesRecovered.N,
		},
		Gauges:     map[string]float64{},
		Histograms: []*Histogram{r.ReadLatencyNs.Clone(), r.QueueDepth.Clone(), r.EpochHostUs.Clone()},
		Epochs:     append([]EpochSnapshot(nil), r.epochs...),
	}
	for _, g := range []*Gauge{&r.NonMemPowerW, &r.GammaBound} {
		if g.Set_ {
			out.Gauges[g.Name] = g.V
		}
	}
	if r.ring != nil {
		out.Events = r.ring.drain()
		out.DroppedEvents = r.ring.dropped
	}
	return out
}

// jsonlRecord is one line of the interchange format. A "run" line
// opens a new run; subsequent "epoch" and "event" lines attach to it.
type jsonlRecord struct {
	Type  string         `json:"type"`
	Run   *RunExport     `json:"run,omitempty"`
	Epoch *EpochSnapshot `json:"epoch,omitempty"`
	Event *Event         `json:"event,omitempty"`
}

// WriteJSONL streams the exports to w in the line-oriented interchange
// format: one "run" header line per export (identity, totals,
// collectors), followed by one "epoch" line per snapshot and one
// "event" line per retained event.
func WriteJSONL(w io.Writer, exports ...*RunExport) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range exports {
		if e == nil {
			continue
		}
		// Stamp the schema version on the wire without mutating the
		// caller's export (shallow copy: the encoder only reads).
		if e.SchemaVersion == "" {
			stamped := *e
			stamped.SchemaVersion = SchemaVersion
			e = &stamped
		}
		if err := enc.Encode(jsonlRecord{Type: "run", Run: e}); err != nil {
			return err
		}
		for i := range e.Epochs {
			if err := enc.Encode(jsonlRecord{Type: "epoch", Epoch: &e.Epochs[i]}); err != nil {
				return err
			}
		}
		for i := range e.Events {
			if err := enc.Encode(jsonlRecord{Type: "event", Event: &e.Events[i]}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses an interchange stream back into run exports. Run
// records carrying an incompatible (different-major) schema_version
// abort the parse with a *SchemaVersionError; see SchemaVersion for
// the compatibility rule.
func ReadJSONL(r io.Reader) ([]*RunExport, error) {
	var out []*RunExport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		switch rec.Type {
		case "run":
			if rec.Run == nil {
				return nil, fmt.Errorf("telemetry: line %d: run record without payload", line)
			}
			if schemaMajor(rec.Run.SchemaVersion) != schemaMajor(SchemaVersion) {
				return nil, &SchemaVersionError{Version: rec.Run.SchemaVersion, Line: line}
			}
			out = append(out, rec.Run)
		case "epoch":
			if len(out) == 0 || rec.Epoch == nil {
				return nil, fmt.Errorf("telemetry: line %d: epoch record outside a run", line)
			}
			cur := out[len(out)-1]
			cur.Epochs = append(cur.Epochs, *rec.Epoch)
		case "event":
			if len(out) == 0 || rec.Event == nil {
				return nil, fmt.Errorf("telemetry: line %d: event record outside a run", line)
			}
			cur := out[len(out)-1]
			cur.Events = append(cur.Events, *rec.Event)
		default:
			return nil, fmt.Errorf("telemetry: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Rollup aggregates telemetry across runs: totals, merged counters,
// and merged histograms. Aggregation is race-free by construction —
// every run owns a private recorder, and rollups are built from the
// finished exports on the caller's goroutine.
type Rollup struct {
	Runs            int
	Epochs          int
	Events          int
	DurationSeconds float64
	Energy          Energy
	Residency       dram.Account
	FreqSeconds     map[int]float64
	Counters        map[string]uint64
	Histograms      map[string]*Histogram
}

// NewRollup returns an empty rollup.
func NewRollup() *Rollup {
	return &Rollup{
		FreqSeconds: map[int]float64{},
		Counters:    map[string]uint64{},
		Histograms:  map[string]*Histogram{},
	}
}

// Add merges one run export into the rollup. Nil exports (runs without
// telemetry) are skipped.
func (ro *Rollup) Add(e *RunExport) {
	if e == nil {
		return
	}
	ro.Runs++
	ro.Epochs += len(e.Epochs)
	ro.Events += len(e.Events)
	ro.DurationSeconds += e.DurationSeconds
	ro.Energy.Add(e.Energy)
	ro.Residency.Add(e.Residency)
	for f, s := range e.FreqSeconds {
		ro.FreqSeconds[f] += s
	}
	for name, n := range e.Counters {
		ro.Counters[name] += n
	}
	for _, h := range e.Histograms {
		if have := ro.Histograms[h.Name]; have == nil {
			ro.Histograms[h.Name] = h.Clone()
		} else {
			have.Merge(h)
		}
	}
}
