package trace

import (
	"fmt"
	"math"

	"memscale/internal/config"
)

// Phase describes one execution phase of an application.
type Phase struct {
	// Instructions is the phase length; the final phase of a profile
	// runs forever regardless of this value.
	Instructions uint64

	// BaseCPI is the cycles-per-instruction of the core when no LLC
	// miss is outstanding (compute-only CPI).
	BaseCPI float64

	// MPKI is the LLC read-miss rate per kilo-instruction; WPKI the
	// LLC writeback rate. WPKI must not exceed MPKI (each writeback
	// is modelled as riding along with a miss, as evictions do).
	MPKI float64
	WPKI float64

	// RowLocality is the probability that a miss continues in the
	// current row region (next line at channel stride) instead of
	// jumping to a random location.
	RowLocality float64

	// HotRows bounds the per-bank row footprint the phase touches;
	// zero means the whole bank.
	HotRows int
}

// Profile is a synthetic stand-in for one SPEC application.
type Profile struct {
	Name   string
	Phases []Phase
}

// Validate checks that the profile is well formed.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile with empty name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: profile %q has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		// NaN compares false against everything, so the range checks
		// below would wave it through; Inf rates degenerate the gap
		// arithmetic. Reject both up front.
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"BaseCPI", ph.BaseCPI}, {"MPKI", ph.MPKI},
			{"WPKI", ph.WPKI}, {"RowLocality", ph.RowLocality},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return fmt.Errorf("trace: %q phase %d: %s must be finite, got %g",
					p.Name, i, f.name, f.v)
			}
		}
		switch {
		case ph.BaseCPI <= 0:
			return fmt.Errorf("trace: %q phase %d: BaseCPI must be positive", p.Name, i)
		case ph.MPKI <= 0:
			return fmt.Errorf("trace: %q phase %d: MPKI must be positive", p.Name, i)
		case ph.WPKI < 0 || ph.WPKI > ph.MPKI:
			return fmt.Errorf("trace: %q phase %d: WPKI must be in [0, MPKI]", p.Name, i)
		case ph.RowLocality < 0 || ph.RowLocality >= 1:
			return fmt.Errorf("trace: %q phase %d: RowLocality must be in [0,1)", p.Name, i)
		case ph.HotRows < 0:
			return fmt.Errorf("trace: %q phase %d: HotRows must be >= 0", p.Name, i)
		case i < len(p.Phases)-1 && ph.Instructions == 0:
			return fmt.Errorf("trace: %q phase %d: non-final phase needs a length", p.Name, i)
		}
	}
	return nil
}

// Access is one LLC read miss, optionally accompanied by a writeback
// (the eviction of the line the read replaces).
type Access struct {
	// Gap is the number of instructions the core retires between the
	// previous access and this one (at BaseCPI, with no memory stall).
	Gap uint64

	// BaseCPI is the compute CPI in force during the gap.
	BaseCPI float64

	// Line is the cache-line address read from memory.
	Line uint64

	// Writeback, when true, means WBLine is written back to memory
	// concurrently with the read.
	Writeback bool
	WBLine    uint64
}

// Stream generates the access sequence of one core running one
// application profile. It is deterministic in (profile, seed) and
// independent of simulated timing.
type Stream struct {
	profile Profile
	rng     *RNG
	mapper  *config.AddressMapper

	phaseIdx   int
	phaseInstr uint64 // instructions retired inside the current phase

	cur      config.Location // current streaming position
	rows     int             // usable rows per bank for the current phase
	rowLines int             // lines per row region (columns per row)
	channels []int           // allowed channels (nil = all), for page partitioning
	totalIn  uint64          // total instructions generated

	// intensity scales the effective miss rate (see SetIntensity);
	// zero means the default 1.0.
	intensity float64

	reads, writebacks uint64
}

// NewStream builds a stream for the given profile and seed. The mapper
// defines the physical address space accesses are drawn from.
func NewStream(p Profile, mapper *config.AddressMapper, seed uint64) (*Stream, error) {
	return NewStreamOnChannels(p, mapper, seed, nil)
}

// NewStreamOnChannels builds a stream whose accesses are confined to
// the given memory channels, modelling OS page placement that
// partitions applications across channels — the substrate for the
// paper's Section 6 future work (per-channel frequencies and OS-level
// scheduling). A nil or empty channel list means all channels.
func NewStreamOnChannels(p Profile, mapper *config.AddressMapper, seed uint64, channels []int) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		profile:  p,
		rng:      NewRNG(seed),
		mapper:   mapper,
		channels: append([]int(nil), channels...),
		rowLines: mapper.Map(mapper.Lines()-1).Col + 1,
	}
	s.enterPhase(0)
	return s, nil
}

// Name returns the profile name.
func (s *Stream) Name() string { return s.profile.Name }

// HomeChannel reports whether every access of the stream — reads and
// writeback victims alike — is confined to a single memory channel,
// and which one. randomLoc folds all locations into the channel
// affinity set, and advance preserves the channel, so a one-channel
// affinity confines the stream completely; the sharded event engine
// relies on this to bind a core to its channel's shard.
func (s *Stream) HomeChannel() (int, bool) {
	if len(s.channels) != 1 {
		return 0, false
	}
	return s.channels[0], true
}

// Channels returns the stream's channel-affinity set in ascending
// placement order, or nil when the stream roams all channels. The
// sharded engine's confinement-group analysis (DESIGN.md §4l) unions
// these sets into connected components to find the finest sound shard
// partition for interleaved placements.
func (s *Stream) Channels() []int {
	return append([]int(nil), s.channels...)
}

// SetIntensity scales the stream's effective memory pressure: the
// active phase's MPKI is multiplied by m from the next access on, so
// m > 1 packs misses closer together (heavier offered load) and m < 1
// spreads them out, while the writeback-to-read ratio stays the
// profile's own. This is the open-loop arrival coupling the fleet
// layer drives — per-epoch request-rate multipliers land here.
// m must be positive and finite; m == 1 is bit-identical to an
// untouched stream.
func (s *Stream) SetIntensity(m float64) error {
	if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
		return fmt.Errorf("trace: intensity must be positive and finite, got %g", m)
	}
	s.intensity = m
	return nil
}

// Intensity returns the multiplier set by SetIntensity (1 by default).
func (s *Stream) Intensity() float64 {
	if s.intensity == 0 {
		return 1
	}
	return s.intensity
}

func (s *Stream) enterPhase(i int) {
	s.phaseIdx = i
	s.phaseInstr = 0
	ph := &s.profile.Phases[i]
	s.rows = ph.HotRows
	if s.rows <= 0 {
		// Whole bank: recover row count from the mapper by probing.
		s.rows = s.mapper.Map(s.mapper.Lines()-1).Row + 1
	}
	s.jump()
}

// jump moves the streaming position to a random location in the
// phase footprint.
func (s *Stream) jump() {
	s.cur = s.randomLoc()
}

// randomLoc draws a uniform location within the footprint and channel
// affinity.
func (s *Stream) randomLoc() config.Location {
	loc := s.mapper.Map(uint64(s.rng.Uint64()) % s.mapper.Lines())
	loc.Row %= s.rows
	if len(s.channels) > 0 {
		loc.Channel = s.channels[loc.Channel%len(s.channels)]
	}
	return loc
}

// advance moves one line forward in the streaming direction: the next
// column of the same row region (physically the next line at channel
// stride), wrapping into the next row of the same bank.
func (s *Stream) advance() {
	s.cur.Col++
	if s.cur.Col >= s.rowLines {
		s.cur.Col = 0
		s.cur.Row = (s.cur.Row + 1) % s.rows
	}
}

// phase returns the active phase, advancing past any phase boundaries
// crossed by the instructions retired so far.
func (s *Stream) phase() *Phase {
	for s.phaseIdx < len(s.profile.Phases)-1 &&
		s.phaseInstr >= s.profile.Phases[s.phaseIdx].Instructions {
		s.enterPhase(s.phaseIdx + 1)
	}
	return &s.profile.Phases[s.phaseIdx]
}

// Next produces the next access of the stream.
func (s *Stream) Next() Access {
	ph := s.phase()

	mpki := ph.MPKI
	if s.intensity != 0 && s.intensity != 1 {
		mpki *= s.intensity
	}
	meanGap := 1000.0 / mpki
	gap := uint64(s.rng.Exp(meanGap) + 0.5)
	if gap == 0 {
		gap = 1
	}
	// Clamp the gap to the phase boundary so rate changes land where
	// the profile says they do.
	if s.phaseIdx < len(s.profile.Phases)-1 {
		if remain := ph.Instructions - s.phaseInstr; gap > remain && remain > 0 {
			gap = remain
		}
	}
	s.phaseInstr += gap
	s.totalIn += gap

	if s.rng.Float64() < ph.RowLocality {
		s.advance()
	} else {
		s.jump()
	}
	acc := Access{
		Gap:     gap,
		BaseCPI: ph.BaseCPI,
		Line:    s.mapper.Unmap(s.cur),
	}
	s.reads++

	if ph.WPKI > 0 && s.rng.Float64() < ph.WPKI/ph.MPKI {
		// The victim line: a random location in the same footprint.
		victim := s.randomLoc()
		acc.Writeback = true
		acc.WBLine = s.mapper.Unmap(victim)
		s.writebacks++
	}
	return acc
}

// Stats reports the totals generated so far.
func (s *Stream) Stats() (instructions, reads, writebacks uint64) {
	return s.totalIn, s.reads, s.writebacks
}

// PhaseIndex returns the index of the phase the stream is currently in.
func (s *Stream) PhaseIndex() int { return s.phaseIdx }
