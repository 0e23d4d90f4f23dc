package runner

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/checkpoint"
	"memscale/internal/policies"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// goldenJobs are the five golden_test.go configurations at engine
// level.
func goldenJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	add := func(mixName string, spec policies.Spec, epochs int) {
		mix, err := workload.ByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Mix: mix, Spec: spec, Epochs: epochs, Gamma: 0.10})
	}
	add("MEM1", policies.MemScale, 2)
	add("ILP1", policies.StaticBest, 2)
	add("MID2", policies.MemScaleFastPD, 2)
	add("MID3", policies.SlowPD, 2)
	add("MID1", policies.MemScale, 4)
	return jobs
}

// cell is one way to run a job. Together the cells span the
// equivalence axes: coalescing on or off, telemetry off or events on,
// no checkpoint or a midpoint checkpoint resumed through the container
// format, and a warm baseline cache or a cold one with speculation
// held back.
type cell struct {
	name string

	// fresh runs the cell on a new engine: its cache is cold and its
	// speculation is held back, so a managed run decides on estimates
	// throughout. Otherwise the cell shares the reference's cache,
	// which already holds the baseline.
	fresh bool

	tel        bool // telemetry with the event stream
	ckpt       bool // RunWithCheckpoint at the midpoint epoch
	resume     bool // resume the reference's checkpoint after Encode/Decode
	noCoalesce bool // the event-driven path (sim.Options.DisableCoalescing)

	against string   // the earlier cell this one must equal; "" is the reference
	skip    []string // every field the cell may differ from it in
}

// The matrix. Every job's reference is referenceCell; warmCells belong
// to TestOverlapMatchesWarmCache and equivalenceCells to
// TestEquivalence, so no cell runs twice. Telemetry keeps the
// controller off its deferred-precharge paths and DisableCoalescing off
// every coalesced path, so either fires more events; a resumed recorder
// sees only the epochs after the checkpoint. TestForkEquivalence holds
// checkpointed and resumed runs without telemetry to the plain run,
// fired-event count included.
var (
	referenceCell = cell{name: "cold/checkpoint/telemetry", fresh: true, tel: true, ckpt: true}
	warmCells     = []cell{{name: "warm/checkpoint/telemetry", tel: true, ckpt: true}}

	equivalenceCells = []cell{
		{name: "cold/resumed/telemetry", fresh: true, tel: true, resume: true, skip: []string{"Telemetry"}},
		{name: "warm/resumed/telemetry", tel: true, resume: true, against: "cold/resumed/telemetry"},
		{name: "warm/event-driven", noCoalesce: true, skip: []string{"Res.Events", "Telemetry"}},
	}
)

// run executes c for job; cache is the reference's baseline cache and
// ref its checkpoint.
func (c cell) run(job Job, cache *BaselineCache, ref *checkpoint.Checkpoint) (*Engine, Outcome, *checkpoint.Checkpoint, error) {
	ctx := context.Background()
	eng := New(Options{Workers: 1, Cache: cache})
	if c.fresh {
		eng = New(Options{Workers: 1})
		heldBack(eng, nil)
	}
	eng.disableCoalescing = c.noCoalesce
	if c.tel {
		job.Telemetry = &telemetry.Options{Events: true}
	}
	switch {
	case c.resume:
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, ref); err != nil {
			return eng, Outcome{}, nil, err
		}
		ck, err := checkpoint.Decode(&buf)
		if err != nil {
			return eng, Outcome{}, nil, err
		}
		out, err := eng.Resume(ctx, ResumeJob{Checkpoint: ck, Epochs: job.Epochs, Telemetry: job.Telemetry})
		return eng, out, nil, err
	case c.ckpt:
		out, ck, err := eng.RunWithCheckpoint(ctx, job, job.Epochs/2)
		return eng, out, ck, err
	default:
		out, err := eng.Run(ctx, job)
		return eng, out, nil, err
	}
}

// reference is a job's reference cell. It runs once per test binary,
// for whichever test needs it first.
type reference struct {
	once    sync.Once
	out     Outcome
	ck      *checkpoint.Checkpoint
	cache   *BaselineCache
	guessed int64 // attempts that decided on an estimate
	err     error
}

var references sync.Map // "mix/policy" → *reference

// matrix runs cells for job and requires each to be bit-identical to
// the cell it is held to outside its skip list: outcome, checkpoint
// meta and canonical telemetry JSONL. Every warm cell must hit the
// reference's cache.
func matrix(t *testing.T, job Job, cells []cell) *reference {
	v, _ := references.LoadOrStore(job.Mix.Name+"/"+job.Spec.Name, new(reference))
	ref := v.(*reference)
	ref.once.Do(func() {
		var eng *Engine
		eng, ref.out, ref.ck, ref.err = referenceCell.run(job, nil, nil)
		ref.cache, ref.guessed = eng.cache, eng.confirmed.Load()+eng.reruns.Load()
	})
	if ref.err != nil {
		t.Fatalf("%s: %v", referenceCell.name, ref.err)
	}
	bitdiff.Same(t, "checkpoint Meta.NonMem vs outcome", ref.ck.Meta.NonMem, ref.out.NonMem)

	outs := map[string]Outcome{"": ref.out}
	for _, c := range cells {
		_, out, ck, err := c.run(job, ref.cache, ref.ck)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bitdiff.Same(t, c.name, outs[c.against], out, c.skip...)
		if ck != nil {
			bitdiff.Same(t, c.name+" checkpoint meta", ref.ck.Meta, ck.Meta)
		}
		outs[c.name] = out
	}
	if _, misses := ref.cache.Stats(); misses != 1 {
		t.Errorf("baseline misses = %d, want 1 (every warm cell must hit the cache)", misses)
	}
	return ref
}

// TestEquivalence runs every golden job the ways equivalenceCells
// list: resumed on a cold and on a warm cache, and on the event-driven
// path.
func TestEquivalence(t *testing.T) {
	for _, job := range goldenJobs(t) {
		t.Run(job.Mix.Name+"/"+job.Spec.Name, func(t *testing.T) {
			t.Parallel()
			matrix(t, job, equivalenceCells)
		})
	}
}
