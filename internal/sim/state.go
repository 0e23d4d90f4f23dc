package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"memscale/internal/config"
	"memscale/internal/cpu"
	"memscale/internal/event"
	"memscale/internal/memctrl"
	"memscale/internal/power"
	"memscale/internal/trace"
)

// This file is the checkpoint plane of the wired system: every
// stateful layer contributes its pure-data state type, and the system
// composes them — plus the event queue, serialized through the kind
// registry — into one SystemState that restores bit-identically.
//
// Deliberately excluded from state: the telemetry recorder (purely
// observational — the simulated event sequence is identical with or
// without it, so a resumed run re-attaches a fresh recorder) and
// everything derivable from the Config (timing tables, power model,
// geometry).

// ErrStateMismatch reports a checkpoint state that does not fit the
// system it is being restored into — wrong geometry, wrong governor,
// or internally inconsistent references. Matched with errors.Is.
var ErrStateMismatch = errors.New("checkpoint state does not match system")

// StatefulGovernor is implemented by governors whose decisions depend
// on accumulated state (slack ledgers, fitted models). Save returns a
// JSON-serializable pure-data image; Load replaces the governor's
// state with a previously saved image. Governors without the interface
// are treated as stateless (the baseline, static-frequency schemes).
type StatefulGovernor interface {
	Governor
	SaveGovernorState() (any, error)
	LoadGovernorState(data []byte) error
}

// ResultState is the accumulating portion of a Result: everything
// finalize() derives is recomputed, these fields grow epoch by epoch.
type ResultState struct {
	FreqTime        map[config.FreqMHz]config.Time `json:"freq_time,omitempty"`
	Epochs          []EpochRecord                  `json:"epochs,omitempty"`
	InvariantChecks uint64                         `json:"invariant_checks,omitempty"`
}

// SystemState is the complete serializable image of a System at an
// epoch boundary (between stepEpoch calls, with the event queue
// quiescent at the boundary instant).
type SystemState struct {
	Events  *event.State             `json:"events"`
	MC      *memctrl.ControllerState `json:"mc"`
	Cores   []cpu.CoreState          `json:"cores"`
	Streams []trace.StreamState      `json:"streams"`
	Meter   power.MeterState         `json:"meter"`

	Result       ResultState      `json:"result"`
	LastCounters memctrl.Counters `json:"last_counters"`
	LastInstr    []float64        `json:"last_instr"`
	Started      bool             `json:"started"`
	CapFreq      config.FreqMHz   `json:"cap_freq,omitempty"`
	EpochIdx     int              `json:"epoch_idx"`
	PrevSlack    []config.Time    `json:"prev_slack,omitempty"`

	// GovernorName records who governed the saved run (empty for the
	// unmanaged baseline); GovernorState its serialized state when the
	// governor is stateful. A checkpoint restores only under a governor
	// of the same name, or under none when it names none.
	GovernorName  string          `json:"governor_name,omitempty"`
	GovernorState json.RawMessage `json:"governor_state,omitempty"`
}

// registry assembles the event-kind codec over the system's pre-bound
// callbacks. reqEnv/reqs select the encode or decode side of the
// request-carrying controller kinds.
func (s *System) registry(reqEnv func(env any) (int32, error), reqs []*memctrl.Request) *event.Registry {
	reg := event.NewRegistry()
	s.MC.RegisterEvents(reg, reqEnv, reqs)
	cpu.RegisterEvents(reg, s.Cores)
	return reg
}

// Save captures the system's full simulation state. Call it at an
// epoch boundary — after stepEpoch/StepEpoch returns — so the capture
// is on the quiescent instant every layer's bookkeeping agrees on.
func (s *System) Save() (*SystemState, error) {
	tbl := memctrl.NewRequestTable()
	mcState := s.MC.Save(tbl)
	codec := s.registry(tbl.EncodeEnv, nil)
	evState, err := s.Q.Save(codec)
	if err != nil {
		return nil, err
	}
	// The event scan may have interned requests referenced only from
	// pending events; the table is complete only now.
	mcState.Requests = tbl.States()

	st := &SystemState{
		Events:  evState,
		MC:      mcState,
		Cores:   make([]cpu.CoreState, len(s.Cores)),
		Streams: make([]trace.StreamState, len(s.Cores)),
		Meter:   s.Meter.Save(),
		Result: ResultState{
			FreqTime:        make(map[config.FreqMHz]config.Time, len(s.result.FreqTime)),
			Epochs:          append([]EpochRecord(nil), s.result.Epochs...),
			InvariantChecks: s.result.InvariantChecks,
		},
		LastCounters: s.lastCounters.Clone(),
		LastInstr:    append([]float64(nil), s.lastInstr...),
		Started:      s.started,
		CapFreq:      s.capFreq,
		EpochIdx:     s.step.idx,
		PrevSlack:    append([]config.Time(nil), s.step.prevSlack...),
	}
	for f, t := range s.result.FreqTime {
		st.Result.FreqTime[f] = t
	}
	for i, c := range s.Cores {
		st.Cores[i] = c.Save()
		st.Streams[i] = c.Stream().Save()
	}
	if s.opts.Governor != nil {
		st.GovernorName = s.opts.Governor.Name()
		if sg, ok := s.opts.Governor.(StatefulGovernor); ok {
			gs, err := sg.SaveGovernorState()
			if err != nil {
				return nil, fmt.Errorf("sim: governor state: %w", err)
			}
			raw, err := json.Marshal(gs)
			if err != nil {
				return nil, fmt.Errorf("sim: governor state: %w", err)
			}
			st.GovernorState = raw
		}
	}
	return st, nil
}

// Restore builds a system from cfg/streams/opts — exactly as New would
// — and loads st into it. The configuration must describe the same
// machine the state was saved from (geometry mismatches are rejected),
// and the governor in opts must carry the name the state records (no
// governor for an unmanaged checkpoint) and, when stateful, accept the
// saved state.
func Restore(cfg config.Config, streams []*trace.Stream, opts Options, st *SystemState) (*System, error) {
	s, err := New(cfg, streams, opts)
	if err != nil {
		return nil, err
	}
	if err := s.load(st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStateMismatch, err)
	}
	return s, nil
}

func (s *System) load(st *SystemState) error {
	if st == nil || st.Events == nil || st.MC == nil {
		return fmt.Errorf("sim: checkpoint state is incomplete")
	}
	if len(st.Cores) != len(s.Cores) || len(st.Streams) != len(s.Cores) {
		return fmt.Errorf("sim: state has %d cores, system has %d", len(st.Cores), len(s.Cores))
	}
	if len(st.LastInstr) != len(s.Cores) {
		return fmt.Errorf("sim: state instruction baseline sized for %d cores, system has %d", len(st.LastInstr), len(s.Cores))
	}
	if len(st.LastCounters.TLM) != len(s.Cores) {
		return fmt.Errorf("sim: state counter baseline sized for %d cores, system has %d", len(st.LastCounters.TLM), len(s.Cores))
	}
	if st.CapFreq != 0 && !config.ValidBusFrequency(st.CapFreq) {
		return fmt.Errorf("sim: frequency cap %v is not on the bus-frequency ladder", st.CapFreq)
	}
	// A checkpoint resumes only under the governor that produced it.
	name := ""
	if s.opts.Governor != nil {
		name = s.opts.Governor.Name()
	}
	if name != st.GovernorName {
		return fmt.Errorf("sim: checkpoint was governed by %q, restore target runs %q", st.GovernorName, name)
	}
	if st.GovernorState != nil {
		sg, ok := s.opts.Governor.(StatefulGovernor)
		if !ok {
			return fmt.Errorf("sim: governor %q cannot load its saved state", name)
		}
		if err := sg.LoadGovernorState(st.GovernorState); err != nil {
			return err
		}
	}

	for i, c := range s.Cores {
		if err := c.Stream().Load(st.Streams[i]); err != nil {
			return fmt.Errorf("sim: core %d stream: %w", i, err)
		}
		c.Load(st.Cores[i])
	}
	s.Meter.Load(st.Meter)
	reqs, err := s.MC.Load(st.MC, func(core int) func(config.Time) {
		if core < 0 || core >= len(s.Cores) {
			return nil
		}
		return s.Cores[core].OnData()
	})
	if err != nil {
		return err
	}
	if err := s.MC.CheckRelock(st.Events); err != nil {
		return err
	}
	codec := s.registry(nil, reqs)
	if err := s.Q.Load(st.Events, codec); err != nil {
		return err
	}

	s.result.FreqTime = make(map[config.FreqMHz]config.Time, len(st.Result.FreqTime))
	for f, t := range st.Result.FreqTime {
		s.result.FreqTime[f] = t
	}
	s.result.Epochs = append([]EpochRecord(nil), st.Result.Epochs...)
	s.result.InvariantChecks = st.Result.InvariantChecks
	// Re-seed the invariant plane's energy witness from the restored
	// meter so the conservation check continues from the checkpoint's
	// exact total instead of re-accumulating association drift.
	s.invEnergyJ = s.Meter.Total().Memory()
	s.lastCounters = st.LastCounters.Clone()
	s.lastInstr = append([]float64(nil), st.LastInstr...)
	s.capFreq = st.CapFreq
	s.step.idx = st.EpochIdx
	s.step.prevSlack = append([]config.Time(nil), st.PrevSlack...)

	if st.Started {
		// The saved run was already booted: bind the governor hooks
		// without re-running the boot sequence (the pending events and
		// counter baselines are the checkpoint's, not a fresh start's).
		s.started = true
		s.bindGovernor()
		if s.opts.Telemetry != nil && s.step.slacker != nil && s.step.prevSlack == nil {
			s.step.prevSlack = s.step.slacker.Slack()
		}
	}
	return nil
}
