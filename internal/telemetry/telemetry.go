// Package telemetry is the simulator's metrics-and-tracing subsystem:
// typed collectors (counters, gauges, fixed-bucket histograms), a
// structured event stream behind a drop-oldest ring buffer, per-epoch
// snapshots, and per-run exports that aggregate into cross-run
// rollups.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every instrumented layer holds a
//     *Recorder that is nil when telemetry is off; all Recorder
//     methods are nil-receiver-safe, and hot paths additionally guard
//     with a nil check so no argument is even materialized.
//   - Zero interference. Telemetry observes the simulation and never
//     feeds back into it: an instrumented run simulates the same
//     machine and reports the same results as an uninstrumented one.
//     Only the number of fired events differs: the memory controller
//     keeps its deferred-precharge shortcut off while a recorder is
//     attached, so that every powerdown is recorded at its own instant,
//     and the event-driven closes it takes instead fire more events.
//   - One recorder per run, one record path. The recorder is
//     single-goroutine (the sweep engine gives every job its own
//     recorder, aggregating exports only after the jobs finish). Every
//     record goes straight into the run-wide collectors as it happens:
//     events export in the order they fired, and each histogram's Sum
//     accumulates in observation order. Per-channel records — relocks,
//     powerdowns, refreshes — carry their channel index in the event.
//
// The package sits below power/memctrl/sim in the import graph
// (it imports only config and dram), so every layer can emit into it.
package telemetry

import (
	"memscale/internal/config"
	"memscale/internal/dram"
)

// Options configure a Recorder.
type Options struct {
	// Events enables the structured event stream. Collectors
	// (histograms, counters, gauges) and epoch snapshots are always on
	// for an existing recorder; the event stream is the high-volume
	// part and opts in separately.
	Events bool

	// RingSize bounds the in-memory event buffer (default 4096). The
	// ring keeps the newest events and counts the ones it drops.
	RingSize int
}

// DefaultRingSize is the event-ring capacity when Options.RingSize is
// zero.
const DefaultRingSize = 4096

// Recorder collects one run's telemetry. The zero value is not usable;
// build with NewRecorder. A nil *Recorder is the disabled state: every
// method no-ops.
type Recorder struct {
	opts  Options
	epoch int

	ring *eventRing

	// Histograms (always on).
	ReadLatencyNs *Histogram
	QueueDepth    *Histogram
	EpochHostUs   *Histogram

	// Counters (always on).
	FreqTransitions Counter
	PowerdownEnters Counter
	PowerdownExits  Counter
	Refreshes       Counter
	Decisions       Counter
	SlackUpdates    Counter
	PowerIntervals  Counter
	// FaultsInjected and DegradedEpochs are never incremented: the
	// fault-injection plane that fed them is gone. NodesLost and
	// NodesRecovered are never incremented either: the fleet
	// supervisor that fed them is gone. All four stay because every
	// export carries each counter by name, and the pinned export
	// digests hash those names.
	FaultsInjected Counter
	DegradedEpochs Counter
	NodesLost      Counter
	NodesRecovered Counter

	// Gauges (set by the run harness).
	NonMemPowerW Gauge
	GammaBound   Gauge

	// Per-run rollup state fed by the power layer.
	duration  config.Time
	energy    Energy
	residency dram.Account

	epochs []EpochSnapshot
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	r := &Recorder{
		opts:          opts,
		ReadLatencyNs: NewHistogram("read_latency", "ns", ReadLatencyBoundsNs),
		QueueDepth:    NewHistogram("queue_depth", "reqs", QueueDepthBounds),
		EpochHostUs:   NewHistogram("epoch_host", "us", EpochHostBoundsUs),
	}
	r.FreqTransitions.Name = "freq_transitions"
	r.PowerdownEnters.Name = "powerdown_enters"
	r.PowerdownExits.Name = "powerdown_exits"
	r.Refreshes.Name = "refreshes"
	r.Decisions.Name = "decisions"
	r.SlackUpdates.Name = "slack_updates"
	r.PowerIntervals.Name = "power_intervals"
	r.FaultsInjected.Name = "faults_injected"
	r.DegradedEpochs.Name = "degraded_epochs"
	r.NodesLost.Name = "nodes_lost"
	r.NodesRecovered.Name = "nodes_recovered"
	r.NonMemPowerW.Name = "nonmem_power_w"
	r.GammaBound.Name = "gamma_bound"
	if opts.Events {
		r.ring = newEventRing(opts.RingSize)
	}
	return r
}

// EventsEnabled reports whether the recorder captures the event
// stream. Safe on nil.
func (r *Recorder) EventsEnabled() bool { return r != nil && r.opts.Events }

// SetEpoch stamps subsequent events with the given epoch index. Safe
// on nil.
func (r *Recorder) SetEpoch(i int) {
	if r == nil {
		return
	}
	r.epoch = i
}

// push buffers one event.
func (r *Recorder) push(ev Event) {
	if r == nil || r.ring == nil {
		return
	}
	ev.Epoch = r.epoch
	r.ring.push(ev)
}

// FreqTransition records a channel's relock from one bus frequency to
// another, with its halt penalty. Safe on nil.
func (r *Recorder) FreqTransition(t config.Time, ch int, from, to config.FreqMHz, penalty config.Time) {
	if r == nil {
		return
	}
	r.FreqTransitions.Add(1)
	r.push(Event{Kind: EvFreqTransition, Time: t, Channel: ch, Rank: -1, Core: -1,
		A: int64(from), B: int64(to), C: int64(penalty)})
}

// PowerdownEnter records a rank dropping CKE. Safe on nil.
func (r *Recorder) PowerdownEnter(t config.Time, ch, rank int, slow bool) {
	if r == nil {
		return
	}
	r.PowerdownEnters.Add(1)
	var a int64
	if slow {
		a = 1
	}
	r.push(Event{Kind: EvPowerdownEnter, Time: t, Channel: ch, Rank: rank, Core: -1, A: a})
}

// PowerdownExit records a rank waking to serve a request. Safe on nil.
func (r *Recorder) PowerdownExit(t config.Time, ch, rank int) {
	if r == nil {
		return
	}
	r.PowerdownExits.Add(1)
	r.push(Event{Kind: EvPowerdownExit, Time: t, Channel: ch, Rank: rank, Core: -1})
}

// Refresh records a rank refresh spanning dur. Safe on nil.
func (r *Recorder) Refresh(t config.Time, ch, rank int, dur config.Time) {
	if r == nil {
		return
	}
	r.Refreshes.Add(1)
	r.push(Event{Kind: EvRefresh, Time: t, Channel: ch, Rank: rank, Core: -1, C: int64(dur)})
}

// ObserveReadLatency records one read's arrival-to-data latency. Safe
// on nil.
func (r *Recorder) ObserveReadLatency(d config.Time) {
	if r == nil {
		return
	}
	r.ReadLatencyNs.Observe(d.Nanoseconds())
}

// ObserveQueueDepth records the outstanding request count an arriving
// request sees on its channel. Safe on nil.
func (r *Recorder) ObserveQueueDepth(depth int) {
	if r == nil {
		return
	}
	r.QueueDepth.Observe(float64(depth))
}

// Slack records one core's slack credit (delta > 0) or debit at an
// epoch boundary, plus the new accumulated slack, both in seconds.
func (r *Recorder) Slack(t config.Time, core int, delta, total float64) {
	if r == nil {
		return
	}
	r.SlackUpdates.Add(1)
	r.push(Event{Kind: EvSlack, Time: t, Channel: -1, Rank: -1, Core: core, F1: delta, F2: total})
}

// Decision records one completed governor decision: the frequency in
// force during profiling, the chosen frequency, the model-predicted
// mean CPI at the choice (0 when unavailable), and the mean CPI the
// epoch actually measured.
func (r *Recorder) Decision(t config.Time, from, chosen config.FreqMHz, predicted, actual float64) {
	if r == nil {
		return
	}
	r.Decisions.Add(1)
	r.push(Event{Kind: EvDecision, Time: t, Channel: -1, Rank: -1, Core: -1,
		A: int64(from), B: int64(chosen), F1: predicted, F2: actual})
}

// ObserveEpochHost records the host wall-clock nanoseconds one epoch
// took to simulate.
func (r *Recorder) ObserveEpochHost(hostNs int64) {
	if r == nil {
		return
	}
	r.EpochHostUs.Observe(float64(hostNs) / 1e3)
}

// PowerInterval accumulates one metered power interval into the run
// rollup: its duration, its DRAM state-residency account (summed over
// ranks), and its energy breakdown. The power layer calls this from
// Meter.Record, so the recorder's totals reconcile with the
// simulator's own energy accounting by construction.
func (r *Recorder) PowerInterval(dur config.Time, res dram.Account, e Energy) {
	if r == nil {
		return
	}
	r.PowerIntervals.Add(1)
	r.duration += dur
	r.residency.Add(res)
	r.energy.Add(e)
}

// AddEpoch appends one epoch snapshot.
func (r *Recorder) AddEpoch(s EpochSnapshot) {
	if r == nil {
		return
	}
	r.epochs = append(r.epochs, s)
}

// Epochs returns the snapshots recorded so far. Safe on nil.
func (r *Recorder) Epochs() []EpochSnapshot {
	if r == nil {
		return nil
	}
	return r.epochs
}

// Residency returns the accumulated DRAM state-residency account.
// Safe on nil.
func (r *Recorder) Residency() dram.Account {
	if r == nil {
		return dram.Account{}
	}
	return r.residency
}
