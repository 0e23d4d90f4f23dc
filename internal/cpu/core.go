// Package cpu models the in-order cores of the evaluation platform:
// one outstanding LLC miss per core (Section 3.3), so a core's runtime
// is exactly compute time plus memory time (Equation 2). Each core
// replays a deterministic synthetic access stream: it retires
// instructions at the stream's compute CPI, blocks on every read miss
// until the memory controller delivers the line, and fires writebacks
// alongside the misses without blocking.
package cpu

import (
	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/memctrl"
	"memscale/internal/trace"
)

// Core is one in-order core.
type Core struct {
	id     int
	cfg    *config.Config
	q      *event.Queue
	mc     *memctrl.Controller
	stream *trace.Stream

	// Compute-segment state: between computeStart and the issue of the
	// next miss, instructions retire at `rate` instructions per
	// picosecond.
	computing    bool
	computeStart config.Time
	rate         float64
	retiredBase  float64 // instructions retired before the segment

	waiting    bool
	stallStart config.Time
	stallTime  config.Time

	reads      uint64
	writebacks uint64
	started    bool

	// cpuPeriod is the CPU clock period in picoseconds, as a float.
	cpuPeriod float64

	// pending is the access drawn for the current compute segment,
	// written in place by the stream; the issue event reads it back
	// instead of capturing it in a closure.
	pending trace.Access

	// Pre-bound callbacks, created once per core so the per-access hot
	// path (issue event, read completion) schedules without allocating.
	onIssue event.Bound
	onData  event.Handler
}

// New builds a core that replays stream through mc.
func New(id int, cfg *config.Config, q *event.Queue, mc *memctrl.Controller, stream *trace.Stream) *Core {
	c := &Core{id: id, cfg: cfg, q: q, mc: mc, stream: stream,
		cpuPeriod: float64(cfg.CPUFreqMHz.Period())}
	c.onIssue = c.issueEvent
	c.onData = c.dataReturned
	return c
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Stream returns the access stream the core replays.
func (c *Core) Stream() *trace.Stream { return c.stream }

// Start begins execution at now.
func (c *Core) Start(now config.Time) {
	if c.started {
		panic("cpu: core started twice")
	}
	c.started = true
	c.beginSegment(now)
}

// beginSegment draws the next access and schedules its issue after the
// compute gap.
func (c *Core) beginSegment(now config.Time) {
	acc := &c.pending
	c.stream.NextInto(acc)
	dur := config.Time(float64(acc.Gap)*acc.BaseCPI*c.cpuPeriod + 0.5)

	c.computing = true
	c.computeStart = now
	if dur > 0 {
		c.rate = float64(acc.Gap) / float64(dur)
	} else {
		c.rate = 0
		c.retiredBase += float64(acc.Gap)
	}

	credit := int32(0)
	if dur > 0 {
		credit = 1
	}
	if now > c.q.Now() {
		// Future-dated inline delivery: the controller's coalesced grant
		// path (DESIGN.md §4g) calls dataReturned at grant time with the
		// transfer's end time, having elided the completion event. The
		// core state above is private until the quiesce horizon, so
		// updating it early is invisible; the issue event, though, must
		// keep the exact same-instant position the eager formulation's
		// completion fire gave it, so its scheduling is deferred to the
		// delivery instant.
		c.q.ScheduleVia(now, now+dur, c.onIssue, c, credit, 0)
	} else {
		c.q.ScheduleBound(now+dur, c.onIssue, c, credit, 0)
	}
}

// issueEvent is the bound form of issue: the access is read back from
// the core (one issue event is outstanding per core at a time).
func (c *Core) issueEvent(now config.Time, _ any, credit, _ int32) {
	c.issue(now, &c.pending, credit != 0)
}

// issue sends the segment's miss (and any writeback) to memory and
// blocks the core.
func (c *Core) issue(now config.Time, acc *trace.Access, credit bool) {
	if credit {
		c.retiredBase += float64(now-c.computeStart) * c.rate
	}
	c.computing = false
	c.waiting = true
	c.stallStart = now

	if acc.Writeback {
		c.writebacks++
		c.mc.EnqueueLoc(now, acc.WBLoc, true, c.id, nil)
	}
	c.reads++
	c.mc.EnqueueLoc(now, acc.Loc, false, c.id, c.onData)
}

// dataReturned unblocks the core when the memory controller delivers
// the missed line, and starts the next compute segment.
func (c *Core) dataReturned(at config.Time) {
	c.waiting = false
	c.stallTime += at - c.stallStart
	c.beginSegment(at)
}

// Instructions returns the (fractional) instructions retired by time
// now; during a compute segment it interpolates linearly, exactly as a
// hardware TIC counter sampled mid-segment would appear.
func (c *Core) Instructions(now config.Time) float64 {
	if c.computing && now > c.computeStart {
		return c.retiredBase + float64(now-c.computeStart)*c.rate
	}
	return c.retiredBase
}

// CPI returns the average cycles per instruction over [0, now].
func (c *Core) CPI(now config.Time) float64 {
	instr := c.Instructions(now)
	if instr <= 0 {
		return 0
	}
	return c.cfg.TimeToCPUCycles(now) / instr
}

// Waiting reports whether the core is blocked on a miss.
func (c *Core) Waiting() bool { return c.waiting }

// StallTime returns the cumulative time spent blocked on misses.
func (c *Core) StallTime() config.Time { return c.stallTime }

// Reads returns the number of read misses issued.
func (c *Core) Reads() uint64 { return c.reads }

// Writebacks returns the number of writebacks issued.
func (c *Core) Writebacks() uint64 { return c.writebacks }
