package trace

import (
	"fmt"

	"memscale/internal/config"
)

// State returns the RNG's raw state word.
func (r *RNG) State() uint64 { return r.state }

// SetState replaces the RNG's raw state word.
func (r *RNG) SetState(s uint64) { r.state = s }

// StreamState is the pure-data checkpoint image of a Stream: the RNG
// word, the phase cursor, the streaming position, and the generation
// totals. The profile and mapper are construction parameters and are
// rebuilt from configuration on restore.
type StreamState struct {
	RNG        uint64          `json:"rng"`
	PhaseIdx   int             `json:"phase_idx"`
	PhaseInstr uint64          `json:"phase_instr"`
	Cur        config.Location `json:"cur"`
	Rows       int             `json:"rows"`
	TotalIn    uint64          `json:"total_instructions"`
	Intensity  float64         `json:"intensity,omitempty"`
	Reads      uint64          `json:"reads"`
	Writebacks uint64          `json:"writebacks"`
}

// Save captures the stream's full mutable state.
func (s *Stream) Save() StreamState {
	return StreamState{
		RNG:        s.rng.State(),
		PhaseIdx:   s.phaseIdx,
		PhaseInstr: s.phaseInstr,
		Cur:        s.cur,
		Rows:       s.rows,
		TotalIn:    s.totalIn,
		Intensity:  s.intensity,
		Reads:      s.reads,
		Writebacks: s.writebacks,
	}
}

// Load replaces the stream's mutable state with st. The stream must
// have been built from the same profile and mapper the state was saved
// under.
func (s *Stream) Load(st StreamState) error {
	if st.PhaseIdx < 0 || st.PhaseIdx >= len(s.profile.Phases) {
		return fmt.Errorf("trace: stream state phase %d out of range [0,%d)", st.PhaseIdx, len(s.profile.Phases))
	}
	if st.Rows <= 0 {
		return fmt.Errorf("trace: stream state rows %d must be positive", st.Rows)
	}
	s.rng.SetState(st.RNG)
	s.phaseIdx = st.PhaseIdx
	s.phaseInstr = st.PhaseInstr
	s.cur = st.Cur
	s.rows = st.Rows
	s.totalIn = st.TotalIn
	s.intensity = st.Intensity
	s.reads = st.Reads
	s.writebacks = st.Writebacks
	s.cachePhase()
	return nil
}
