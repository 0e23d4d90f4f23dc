package workload

import (
	"errors"
	"fmt"
	"sort"

	"memscale/internal/config"
	"memscale/internal/trace"
)

// Sentinel errors for name lookups. Lookup failures wrap these with
// %w, so callers can match with errors.Is regardless of the message
// detail. The public memscale package re-exports them.
var (
	// ErrUnknownMix reports a mix name outside Table 1.
	ErrUnknownMix = errors.New("unknown workload mix")

	// ErrUnknownApp reports an application name outside the profiled
	// SPEC set.
	ErrUnknownApp = errors.New("unknown application")
)

// Class partitions the Table 1 mixes by memory intensity.
type Class int

// Workload classes (Table 1).
const (
	ClassILP Class = iota // computation-intensive
	ClassMID              // balanced
	ClassMEM              // memory-intensive
)

// String names the class as the paper does.
func (c Class) String() string {
	switch c {
	case ClassILP:
		return "ILP"
	case ClassMID:
		return "MID"
	case ClassMEM:
		return "MEM"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Mix is one Table 1 multiprogrammed workload: four applications, each
// replicated across a quarter of the cores.
type Mix struct {
	Name  string
	Class Class
	Apps  [4]string

	// PaperRPKI and PaperWPKI are the Table 1 reference values, kept
	// so the Table 1 experiment can print paper-vs-generated.
	PaperRPKI float64
	PaperWPKI float64
}

// Mixes is Table 1 in program form.
var Mixes = []Mix{
	{"ILP1", ClassILP, [4]string{"vortex", "gcc", "sixtrack", "mesa"}, 0.37, 0.06},
	{"ILP2", ClassILP, [4]string{"perlbmk", "crafty", "gzip", "eon"}, 0.16, 0.01},
	{"ILP3", ClassILP, [4]string{"sixtrack", "mesa", "perlbmk", "crafty"}, 0.27, 0.01},
	{"ILP4", ClassILP, [4]string{"vortex", "mesa", "perlbmk", "crafty"}, 0.24, 0.06},
	{"MID1", ClassMID, [4]string{"ammp", "gap", "wupwise", "vpr"}, 1.72, 0.01},
	{"MID2", ClassMID, [4]string{"astar", "parser", "twolf", "facerec"}, 2.61, 0.09},
	{"MID3", ClassMID, [4]string{"apsi", "bzip2", "ammp", "gap"}, 2.41, 0.16},
	{"MID4", ClassMID, [4]string{"wupwise", "vpr", "astar", "parser"}, 2.11, 0.07},
	{"MEM1", ClassMEM, [4]string{"swim", "applu", "art", "lucas"}, 17.03, 3.03},
	{"MEM2", ClassMEM, [4]string{"fma3d", "mgrid", "galgel", "equake"}, 8.62, 0.25},
	{"MEM3", ClassMEM, [4]string{"swim", "applu", "galgel", "equake"}, 15.6, 3.71},
	{"MEM4", ClassMEM, [4]string{"art", "lucas", "mgrid", "fma3d"}, 8.96, 0.33},
}

// ByName returns the named mix.
func ByName(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: %w %q", ErrUnknownMix, name)
}

// Names returns the names of all mixes in Table 1 order.
func Names() []string {
	names := make([]string, len(Mixes))
	for i, m := range Mixes {
		names[i] = m.Name
	}
	return names
}

// ByClass returns the mixes of one class, in Table 1 order.
func ByClass(c Class) []Mix {
	var out []Mix
	for _, m := range Mixes {
		if m.Class == c {
			out = append(out, m)
		}
	}
	return out
}

// Assignment reports which application runs on a given core for a mix:
// cores are striped so core i runs Apps[i % 4], giving every
// application cores on every quarter of the machine and matching the
// paper's "x4 each" replication on 16 cores (or x2 on 8 cores).
func (m Mix) Assignment(core int) string { return m.Apps[core%len(m.Apps)] }

// Streams instantiates the per-core access streams for this mix on a
// machine with the given number of cores. Each (mix, app, core) tuple
// gets a stable seed, trace.Seed(salt..., mix, app, core), so runs are
// reproducible and policies see identical traces; the fleet salts it
// to decorrelate nodes that run the same mix.
func (m Mix) Streams(cfg *config.Config, salt ...any) ([]*trace.Stream, error) {
	mapper := config.NewAddressMapper(cfg)
	streams := make([]*trace.Stream, cfg.Cores)
	for core := 0; core < cfg.Cores; core++ {
		name := m.Assignment(core)
		p, err := App(name)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", m.Name, err)
		}
		// The unsalted draw, which every single run takes, keeps its
		// seed parts off the heap.
		seed := trace.Seed(m.Name, name, core)
		if len(salt) > 0 {
			seed = trace.Seed(append(salt[:len(salt):len(salt)], m.Name, name, core)...)
		}
		s, err := trace.NewStream(p, mapper, seed)
		if err != nil {
			return nil, fmt.Errorf("mix %s core %d: %w", m.Name, core, err)
		}
		streams[core] = s
	}
	return streams, nil
}

// Table1Instructions is the per-application trace length of the paper
// (the best 100M-instruction SimPoint), over which the Table 1
// RPKI/WPKI values are measured.
const Table1Instructions = 100_000_000

// appRateOver integrates an application's phase-dependent rate (per
// kilo-instruction) over a run of the given instruction count.
func appRateOver(p trace.Profile, instructions uint64, rate func(trace.Phase) float64) float64 {
	var done uint64
	var weighted float64
	for i, ph := range p.Phases {
		n := ph.Instructions
		if i == len(p.Phases)-1 || done+n > instructions {
			n = instructions - done
		}
		weighted += float64(n) * rate(ph)
		done += n
		if done >= instructions {
			break
		}
	}
	return weighted / float64(instructions)
}

// ExpectedRPKI returns the mix's aggregate read-miss rate over the
// Table 1 measurement window (equal instruction counts per core,
// phase-weighted), for comparison with the paper's RPKI column.
func (m Mix) ExpectedRPKI() float64 { return m.ExpectedRPKIOver(Table1Instructions) }

// ExpectedRPKIOver returns the aggregate read-miss rate when each core
// retires the given number of instructions.
func (m Mix) ExpectedRPKIOver(instructions uint64) float64 {
	var sum float64
	for _, name := range m.Apps {
		sum += appRateOver(apps[name], instructions, func(ph trace.Phase) float64 { return ph.MPKI })
	}
	return sum / float64(len(m.Apps))
}

// UniqueApps returns the distinct application names of the mix, sorted.
func (m Mix) UniqueApps() []string {
	set := map[string]bool{}
	for _, a := range m.Apps {
		set[a] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
