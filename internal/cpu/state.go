package cpu

import (
	"fmt"

	"memscale/internal/config"
	"memscale/internal/event"
	"memscale/internal/trace"
)

// CoreState is the pure-data checkpoint image of a Core: the
// compute-segment interpolation state, the stall accounting, and the
// access drawn for the current segment. The stream's own cursor is
// checkpointed separately (trace.StreamState); pending events naming
// the core are captured by the event queue's state.
type CoreState struct {
	Computing    bool        `json:"computing"`
	ComputeStart config.Time `json:"compute_start"`
	Rate         float64     `json:"rate"`
	RetiredBase  float64     `json:"retired_base"`

	Waiting    bool        `json:"waiting"`
	StallStart config.Time `json:"stall_start"`
	StallTime  config.Time `json:"stall_time"`

	Reads      uint64 `json:"reads"`
	Writebacks uint64 `json:"writebacks"`
	Started    bool   `json:"started"`

	Pending PendingAccess `json:"pending"`
}

// PendingAccess is the checkpoint image of the core's pending access.
// It keeps the line-address form (and the JSON keys) that containers
// have always carried: Save encodes the decoded locations with
// AddressMapper.Unmap and Load decodes them with Map, which is exact
// for the in-range locations a stream draws.
type PendingAccess struct {
	Gap       uint64
	BaseCPI   float64
	Line      uint64
	Writeback bool
	WBLine    uint64
}

// Save captures the core's full mutable state.
func (c *Core) Save() CoreState {
	return CoreState{
		Computing:    c.computing,
		ComputeStart: c.computeStart,
		Rate:         c.rate,
		RetiredBase:  c.retiredBase,
		Waiting:      c.waiting,
		StallStart:   c.stallStart,
		StallTime:    c.stallTime,
		Reads:        c.reads,
		Writebacks:   c.writebacks,
		Started:      c.started,
		Pending:      c.savePending(),
	}
}

func (c *Core) savePending() PendingAccess {
	m := c.stream.Mapper()
	p := PendingAccess{
		Gap:       c.pending.Gap,
		BaseCPI:   c.pending.BaseCPI,
		Line:      m.Unmap(c.pending.Loc),
		Writeback: c.pending.Writeback,
	}
	if p.Writeback {
		p.WBLine = m.Unmap(c.pending.WBLoc)
	}
	return p
}

// Load replaces the core's mutable state with st.
func (c *Core) Load(st CoreState) {
	c.computing = st.Computing
	c.computeStart = st.ComputeStart
	c.rate = st.Rate
	c.retiredBase = st.RetiredBase
	c.waiting = st.Waiting
	c.stallStart = st.StallStart
	c.stallTime = st.StallTime
	c.reads = st.Reads
	c.writebacks = st.Writebacks
	c.started = st.Started
	m := c.stream.Mapper()
	p := st.Pending
	c.pending = trace.Access{Gap: p.Gap, BaseCPI: p.BaseCPI, Loc: m.Map(p.Line), Writeback: p.Writeback}
	if p.Writeback {
		c.pending.WBLoc = m.Map(p.WBLine)
	}
}

// OnData returns the core's pre-bound read-completion handler, for
// rebinding a checkpointed request's Done callback on restore. It is
// the identical function value the core passes to the controller on
// every read, so a restored request completes exactly as the original
// would have.
func (c *Core) OnData() event.Handler { return c.onData }

// RegisterEvents registers the cores' issue-event kind with the
// checkpoint event registry. All cores share one code pointer (the
// issue callback is a method value), so a single kind covers every
// core; the owning core is recovered from the event's env.
func RegisterEvents(reg *event.Registry, cores []*Core) {
	if len(cores) == 0 {
		return
	}
	reg.RegisterBound("cpu.issue", cores[0].onIssue,
		func(env any) (int32, error) {
			c, ok := env.(*Core)
			if !ok {
				return 0, fmt.Errorf("cpu: issue event env is %T, want *Core", env)
			}
			return int32(c.id), nil
		},
		func(owner int32) (event.Bound, any, error) {
			if owner < 0 || int(owner) >= len(cores) {
				return nil, nil, fmt.Errorf("cpu: issue event names core %d outside [0,%d)", owner, len(cores))
			}
			c := cores[owner]
			return c.onIssue, c, nil
		})
}
