package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"memscale/internal/checkpoint"
	"memscale/internal/config"
	"memscale/internal/core"
	"memscale/internal/faults"
	"memscale/internal/policies"
	"memscale/internal/sim"
	"memscale/internal/telemetry"
	"memscale/internal/workload"
)

// diffBits returns the path of the first value where a and b differ, or
// "". Floats compare by Float64bits, so -0 differs from 0 and the test
// demands exact reproduction, not tolerance.
func diffBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		it := a.MapRange()
		for it.Next() {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, it.Key())
			}
			if d := diffBits(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key())); d != "" {
				return d
			}
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil vs non-nil"
		}
		if !a.IsNil() {
			return diffBits(a.Elem(), b.Elem(), path)
		}
	}
	return ""
}

// sameOutcome fails t unless the two outcomes are Float64bits-identical
// and their telemetry exports render to identical JSONL bytes.
func sameOutcome(t *testing.T, what string, a, b Outcome) {
	t.Helper()
	ta, tb := canonicalJSONL(t, a.Telemetry), canonicalJSONL(t, b.Telemetry)
	a.Telemetry, b.Telemetry = nil, nil
	if d := diffBits(reflect.ValueOf(a), reflect.ValueOf(b), "Outcome"); d != "" {
		t.Errorf("%s: outcomes differ at %s", what, d)
	}
	if math.Float64bits(a.Res.NonMemEnergy) != math.Float64bits(b.Res.NonMemEnergy) {
		t.Errorf("%s: NonMemEnergy %v vs %v", what, a.Res.NonMemEnergy, b.Res.NonMemEnergy)
	}
	if !bytes.Equal(ta, tb) {
		t.Errorf("%s: telemetry JSONL differs:\n%s\nvs\n%s", what, ta, tb)
	}
}

// canonicalJSONL renders an export with its host-clock observations
// zeroed: they record host wall time, which differs between any two
// runs; everything else is simulated state.
func canonicalJSONL(t *testing.T, e *telemetry.RunExport) []byte {
	t.Helper()
	if e == nil {
		return nil
	}
	for i := range e.Epochs {
		e.Epochs[i].HostNs = 0
	}
	if h := e.Histogram("epoch_host"); h != nil {
		h.Reset()
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heldBack makes every speculative attempt of eng decide as if the
// baseline were still running, whatever the host's scheduling: the
// whole managed run guesses, and only the replay sees the calibrated
// value. estimate, when non-nil, replaces the default guess.
func heldBack(eng *Engine, estimate func(sim.Profile) float64) {
	eng.speculation = func(func() (float64, bool)) *core.Speculation {
		return core.NewSpeculation(func() (float64, bool) { return 0, false }, estimate)
	}
}

// goldenJobs are the five golden_test.go configurations at engine level.
func goldenJobs(t *testing.T) []Job {
	t.Helper()
	job := func(mixName string, spec policies.Spec, epochs int) Job {
		mix, err := workload.ByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		return Job{Mix: mix, Spec: spec, Epochs: epochs, Gamma: 0.10, Telemetry: &telemetry.Options{Events: true}}
	}
	faulted := job("MID1", policies.MemScale, 4)
	faulted.Faults = &faults.Config{
		Seed:               42,
		RefreshStormRate:   0.5,
		RelockFailRate:     0.5,
		CounterCorruptRate: 0.3,
		ThermalRate:        0.3,
	}
	return []Job{
		job("MEM1", policies.MemScale, 2),
		job("ILP1", policies.StaticBest, 2),
		job("MID2", policies.MemScaleFastPD, 2),
		job("MID3", policies.SlowPD, 2),
		faulted,
	}
}

// TestOverlapMatchesWarmCache is the overlap's acceptance gate: for
// every golden configuration, a cold-cache checkpointed run whose
// managed run decides on estimates throughout, and the resume of its
// checkpoint, must be bit-identical to the same calls made once the
// baseline is cached (the calibrated power known up front). Guesses the
// replay rejects are allowed here; their re-runs must match too.
func TestOverlapMatchesWarmCache(t *testing.T) {
	for _, job := range goldenJobs(t) {
		job := job
		t.Run(job.Mix.Name+"/"+job.Spec.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			ck := job.Epochs / 2
			cold := New(Options{Workers: 1})
			heldBack(cold, nil)
			coldOut, coldCk, err := cold.RunWithCheckpoint(ctx, job, ck)
			if err != nil {
				t.Fatal(err)
			}
			// The cold engine's cache now holds the baseline: the same
			// call again knows the calibrated power before it starts.
			warmOut, warmCk, err := cold.RunWithCheckpoint(ctx, job, ck)
			if err != nil {
				t.Fatal(err)
			}
			if hits, misses := cold.Cache().Stats(); hits != 1 || misses != 1 {
				t.Fatalf("cache hits/misses = %d/%d, want 1/1", hits, misses)
			}
			sameOutcome(t, "checkpointed run", coldOut, warmOut)
			if d := diffBits(reflect.ValueOf(coldCk.Meta), reflect.ValueOf(warmCk.Meta), "Meta"); d != "" {
				t.Errorf("checkpoint meta differs at %s", d)
			}
			if math.Float64bits(coldCk.Meta.NonMem) != math.Float64bits(coldOut.NonMem) {
				t.Errorf("Meta.NonMem = %v, outcome NonMem = %v", coldCk.Meta.NonMem, coldOut.NonMem)
			}
			guessed := cold.confirmed.Load() + cold.reruns.Load()
			if reads := job.Spec.Speculative != nil && job.Spec.Name != policies.StaticBest.Name; reads != (guessed > 0) {
				t.Errorf("%d attempts decided on an estimate; want some exactly when the governor reads nonMem (%v)", guessed, reads)
			}
			t.Logf("confirmed %d, re-ran %d", cold.confirmed.Load(), cold.reruns.Load())

			// Resume the checkpoints to the same horizon: cold with the
			// baseline simulating alongside, warm with it cached.
			rj := func(ck *checkpoint.Checkpoint) ResumeJob {
				return ResumeJob{Checkpoint: ck, Epochs: job.Epochs, Telemetry: &telemetry.Options{Events: true}}
			}
			coldRes, err := New(Options{Workers: 1}).Resume(ctx, rj(coldCk))
			if err != nil {
				t.Fatal(err)
			}
			warmRes, err := cold.Resume(ctx, rj(warmCk))
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "resumed run", coldRes, warmRes)
		})
	}
}

// TestWrongGuessReruns forces an estimate that picks the wrong
// frequency: the replay must reject it, and the re-run must land on the
// warm-cache result.
func TestWrongGuessReruns(t *testing.T) {
	ctx := context.Background()
	job := smallJob(t, "MID1", policies.MemScale)
	job.Epochs = 2
	job.Telemetry = &telemetry.Options{Events: true}
	eng := New(Options{Workers: 1})
	// Rest-of-system power this large makes run time all that counts,
	// so every guess picks the nominal frequency.
	heldBack(eng, func(sim.Profile) float64 { return 1e9 })
	got, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.reruns.Load(); n != 1 {
		t.Fatalf("re-runs = %d, want 1 (the forced guess must be rejected)", n)
	}
	want, err := eng.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.reruns.Load(); n != 1 {
		t.Fatalf("the warm-cache run re-ran (re-runs = %d)", n)
	}
	sameOutcome(t, "re-run", got, want)
}

// TestGuessesConfirmAcrossMixes: cold-cache runs, overlapped the way
// users run them, across the memory-intensive and mixed workloads, the
// alternative schemes with a speculative hook, and three trace seeds:
// every first-epoch guess must survive the replay.
func TestGuessesConfirmAcrossMixes(t *testing.T) {
	var jobs []Job
	for _, name := range []string{"MEM1", "MID1", "MID2", "MID3", "MID4"} {
		for seed := 1; seed <= 3; seed++ {
			for _, spec := range policies.Alternatives() {
				if spec.Speculative == nil {
					continue // nothing to guess: no governor
				}
				job := smallJob(t, name, spec)
				if seed > 1 {
					job.Mix.Name = fmt.Sprintf("%s~%d", name, seed)
				}
				jobs = append(jobs, job)
			}
		}
	}
	// One engine per job keeps every cache cold.
	engs := make([]*Engine, len(jobs))
	errs := ForEach(context.Background(), 0, len(jobs), func(ctx context.Context, i int) error {
		engs[i] = New(Options{Workers: 1})
		_, err := engs[i].Run(ctx, jobs[i])
		return err
	}, nil)
	var confirmed, reruns int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", jobs[i].Mix.Name, jobs[i].Spec.Name, err)
		}
		confirmed += engs[i].confirmed.Load()
		reruns += engs[i].reruns.Load()
	}
	t.Logf("%d of %d runs confirmed a guess, %d re-ran", confirmed, len(jobs), reruns)
	if confirmed == 0 {
		t.Error("no run decided on an estimate")
	}
	if reruns != 0 {
		t.Errorf("%d runs re-ran after a rejected guess, want 0", reruns)
	}
}

// TestBaselinePanicFailsWaiters: a panicking baseline must fail every
// caller with a *PanicError and leave no entry behind, so a later
// caller with the same key gets the typed error instead of blocking.
func TestBaselinePanicFailsWaiters(t *testing.T) {
	mix, err := workload.ByName("ILP2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = -1 // sizing the per-core streams panics
	cache := NewBaselineCache()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, _, err := cache.Baseline(ctx, cfg, mix, 1, 0)
		cancel()
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.Is(err, ErrRunPanicked) {
			t.Fatalf("call %d: err = %v, want a *PanicError", i, err)
		}
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (a panicked baseline must not stay cached)", misses)
	}
}

// settled waits for the goroutine count to fall back to want.
func settled(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the call, want %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlapLifecycle: no goroutine Run, RunWithCheckpoint or Resume
// starts outlives the call, cancellation during either simulation
// returns promptly, and the watchdog still reports ErrJobTimeout.
func TestOverlapLifecycle(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	job := smallJob(t, "MID1", policies.MemScale)
	job.Epochs = 2

	eng := New(Options{Workers: 1})
	if _, err := eng.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	settled(t, before)
	_, ck, err := New(Options{Workers: 1}).RunWithCheckpoint(ctx, job, 1)
	if err != nil {
		t.Fatal(err)
	}
	settled(t, before)
	if _, err := New(Options{Workers: 1}).Resume(ctx, ResumeJob{Checkpoint: ck, Epochs: 3}); err != nil {
		t.Fatal(err)
	}
	settled(t, before)

	// A governor without the speculative hook waits for the baseline, so
	// cancelling it lands during the baseline; MemScale is cancelled
	// during its managed run.
	waiting := policies.MemScale
	waiting.Speculative = nil
	long := func(spec policies.Spec) Job {
		j := smallJob(t, "MEM1", spec)
		j.Epochs = 200
		return j
	}
	for _, j := range []Job{long(waiting), long(policies.MemScale)} {
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err := New(Options{Workers: 1}).Run(cctx, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", j.Spec.Name, err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: cancellation took %v", j.Spec.Name, took)
		}
		settled(t, before)
	}

	j := long(policies.MemScale)
	j.Timeout = 50 * time.Millisecond
	if _, err := New(Options{Workers: 1}).Run(ctx, j); !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("err = %v, want ErrJobTimeout", err)
	}
	settled(t, before)
}
