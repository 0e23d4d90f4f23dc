package telemetry

import "memscale/internal/config"

// Per-channel recording. The memory controller's telemetry is
// per-channel by construction: every latency sample, queue-depth
// observation, powerdown transition, refresh, and relock names exactly
// one channel, and it is recorded only through that channel's
// ChannelCell — staged events plus histogram/counter replicas.
//
// At every window edge the recorder folds the cells back into the
// run-wide collectors in channel-index order: counters add, histograms
// merge element-wise, and staged events k-way merge into the ring by
// (time, channel index). The fold is what fixes the canonical export:
// same-instant events on different channels appear in channel order,
// and each histogram's Sum is accumulated per channel and then added
// across channels, which differs in its low bits from summing every
// sample in fire order. Recording straight into the run-wide
// collectors would therefore change the exported JSONL; replacing the
// cells is a deliberate, golden-pinned reorder of that export
// (ROADMAP direction 3), not a refactor.

// ChannelCell is one channel's private telemetry staging area. A nil
// cell no-ops, mirroring the nil-Recorder convention.
type ChannelCell struct {
	ch     int
	events bool

	staged []Event
	pos    int // merge cursor, meaningful only inside MergeChannels

	readLatencyNs *Histogram
	queueDepth    *Histogram

	freqTransitions uint64
	powerdownEnters uint64
	powerdownExits  uint64
	refreshes       uint64
}

// ChannelCells returns the recorder's n per-channel cells, creating
// them on first use. Safe on nil (returns nil, so an untelemetered
// controller holds no cells).
func (r *Recorder) ChannelCells(n int) []*ChannelCell {
	if r == nil {
		return nil
	}
	if len(r.cells) != n {
		r.cells = make([]*ChannelCell, n)
		for i := range r.cells {
			r.cells[i] = &ChannelCell{
				ch:            i,
				events:        r.opts.Events,
				readLatencyNs: NewHistogram("read_latency", "ns", ReadLatencyBoundsNs),
				queueDepth:    NewHistogram("queue_depth", "reqs", QueueDepthBounds),
			}
		}
	}
	return r.cells
}

// MergeChannels folds every channel cell into the run-wide collectors
// and the event ring. Call only at window edges, with the event queue
// quiescent. Cells merge in channel-index order and staged events in
// (time, channel) order. Safe on nil.
func (r *Recorder) MergeChannels() {
	if r == nil || len(r.cells) == 0 {
		return
	}
	staged := false
	for _, c := range r.cells {
		r.FreqTransitions.Add(c.freqTransitions)
		r.PowerdownEnters.Add(c.powerdownEnters)
		r.PowerdownExits.Add(c.powerdownExits)
		r.Refreshes.Add(c.refreshes)
		c.freqTransitions, c.powerdownEnters, c.powerdownExits, c.refreshes = 0, 0, 0, 0
		r.ReadLatencyNs.Merge(c.readLatencyNs)
		c.readLatencyNs.Reset()
		r.QueueDepth.Merge(c.queueDepth)
		c.queueDepth.Reset()
		c.pos = 0
		staged = staged || len(c.staged) > 0
	}
	if !staged {
		return
	}
	// K-way merge of the staged streams. Each cell's stream is
	// time-nondecreasing (events fire in time order within a channel),
	// and the strict < keeps the lowest channel index on ties.
	for {
		best := -1
		for i, c := range r.cells {
			if c.pos >= len(c.staged) {
				continue
			}
			if best == -1 || c.staged[c.pos].Time < r.cells[best].staged[r.cells[best].pos].Time {
				best = i
			}
		}
		if best == -1 {
			break
		}
		c := r.cells[best]
		r.push(c.staged[c.pos])
		c.pos++
	}
	for _, c := range r.cells {
		c.staged = c.staged[:0]
		c.pos = 0
	}
}

// stage buffers one event for the window-edge merge; the event stream
// must have been enabled on the parent recorder.
func (c *ChannelCell) stage(ev Event) {
	if c.events {
		c.staged = append(c.staged, ev)
	}
}

// FreqTransition records this channel's relock.
func (c *ChannelCell) FreqTransition(t config.Time, from, to config.FreqMHz, penalty config.Time) {
	if c == nil {
		return
	}
	c.freqTransitions++
	c.stage(Event{Kind: EvFreqTransition, Time: t, Channel: c.ch, Rank: -1, Core: -1,
		A: int64(from), B: int64(to), C: int64(penalty)})
}

// PowerdownEnter records a rank on this channel dropping CKE.
func (c *ChannelCell) PowerdownEnter(t config.Time, rank int, slow bool) {
	if c == nil {
		return
	}
	c.powerdownEnters++
	var a int64
	if slow {
		a = 1
	}
	c.stage(Event{Kind: EvPowerdownEnter, Time: t, Channel: c.ch, Rank: rank, Core: -1, A: a})
}

// PowerdownExit records a rank on this channel waking to serve a
// request.
func (c *ChannelCell) PowerdownExit(t config.Time, rank int) {
	if c == nil {
		return
	}
	c.powerdownExits++
	c.stage(Event{Kind: EvPowerdownExit, Time: t, Channel: c.ch, Rank: rank, Core: -1})
}

// Refresh records a refresh on this channel spanning dur.
func (c *ChannelCell) Refresh(t config.Time, rank int, dur config.Time) {
	if c == nil {
		return
	}
	c.refreshes++
	c.stage(Event{Kind: EvRefresh, Time: t, Channel: c.ch, Rank: rank, Core: -1, C: int64(dur)})
}

// ObserveReadLatency records one read's arrival-to-data latency on
// this channel.
func (c *ChannelCell) ObserveReadLatency(d config.Time) {
	if c == nil {
		return
	}
	c.readLatencyNs.Observe(d.Nanoseconds())
}

// ObserveQueueDepth records the channel's outstanding request count
// seen by an arriving request.
func (c *ChannelCell) ObserveQueueDepth(depth int) {
	if c == nil {
		return
	}
	c.queueDepth.Observe(float64(depth))
}
