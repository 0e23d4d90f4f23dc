package runner

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"memscale/internal/bitdiff"
	"memscale/internal/config"
	"memscale/internal/faults"
	"memscale/internal/policies"
)

func TestRunRecoversMutatePanic(t *testing.T) {
	job := smallJob(t, "ILP2", policies.FastPD)
	job.Mutate = func(*config.Config) { panic("poisoned config hook") }
	eng := New(Options{Workers: 1})
	_, err := eng.Run(context.Background(), job)
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("err = %v, want ErrRunPanicked", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if pe.Value != "poisoned config hook" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !bytes.Contains(pe.Stack, []byte("goroutine")) {
		t.Errorf("panic stack missing: %q", pe.Stack)
	}
}

func TestInjectedPanicIsolatedFromBatch(t *testing.T) {
	jobs := []Job{
		smallJob(t, "ILP2", policies.MemScale),
		smallJob(t, "MID1", policies.MemScale),
		smallJob(t, "ILP3", policies.MemScale),
	}
	jobs[1].Faults = &faults.Config{Seed: 1, PanicEnabled: true, PanicEpoch: 0}
	eng := New(Options{Workers: 3})
	outs, errs := eng.RunEach(context.Background(), jobs)
	if !errors.Is(errs[1], ErrRunPanicked) {
		t.Fatalf("panicked job err = %v, want ErrRunPanicked", errs[1])
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("err %T is not a *PanicError", errs[1])
	}
	if ip, ok := pe.Value.(faults.InjectedPanic); !ok || ip.Epoch != 0 {
		t.Errorf("panic value = %#v, want faults.InjectedPanic{Epoch: 0}", pe.Value)
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("job %d err = %v, want nil", i, errs[i])
		}
		if outs[i].Res.Duration <= 0 {
			t.Errorf("job %d has no result despite nil error", i)
		}
	}
}

func TestJobWatchdogTimeout(t *testing.T) {
	job := smallJob(t, "ILP2", policies.FastPD)
	job.Timeout = time.Nanosecond
	eng := New(Options{Workers: 1})
	_, err := eng.Run(context.Background(), job)
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("err = %v, want ErrJobTimeout", err)
	}

	// The engine-level default applies when the job sets none.
	eng = New(Options{Workers: 1, JobTimeout: time.Nanosecond})
	_, err = eng.Run(context.Background(), smallJob(t, "ILP2", policies.FastPD))
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("engine default watchdog: err = %v, want ErrJobTimeout", err)
	}
}

func TestParentCancellationIsNotATimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := smallJob(t, "ILP2", policies.FastPD)
	job.Timeout = time.Minute
	_, err := New(Options{Workers: 1}).Run(ctx, job)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrJobTimeout) {
		t.Fatalf("err = %v, want context.Canceled and not ErrJobTimeout", err)
	}
}

// abortingSeed finds a seed whose transient-abort draw fires on
// attempt 0 but not on attempt wantClear.
func abortingSeed(t *testing.T, rate float64, wantClear int) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 4096; seed++ {
		cfg := faults.Config{Seed: seed, TransientAbortRate: rate}
		first, err := faults.New(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		clear, err := faults.New(cfg, wantClear)
		if err != nil {
			t.Fatal(err)
		}
		if first.EpochPlan(0).Abort && !clear.EpochPlan(0).Abort {
			return seed
		}
	}
	t.Fatal("no seed aborts attempt 0 and clears the retry")
	return 0
}

func TestTransientFaultRetries(t *testing.T) {
	job := smallJob(t, "ILP2", policies.MemScale)
	job.Faults = &faults.Config{
		Seed:               abortingSeed(t, 0.5, 1),
		TransientAbortRate: 0.5,
	}
	out, err := New(Options{Workers: 1}).Run(context.Background(), job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", out.Attempts)
	}
	if out.Res.Faults.TransientAborts != 1 {
		t.Errorf("TransientAborts = %d, want 1", out.Res.Faults.TransientAborts)
	}
}

func TestTransientFaultExhaustsRetries(t *testing.T) {
	job := smallJob(t, "ILP2", policies.MemScale)
	job.Faults = &faults.Config{Seed: 3, TransientAbortRate: 1, MaxRunRetries: 2}
	_, err := New(Options{Workers: 1}).Run(context.Background(), job)
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient after exhausted retries", err)
	}
}

func TestInvalidFaultConfigRejected(t *testing.T) {
	job := smallJob(t, "ILP2", policies.MemScale)
	job.Faults = &faults.Config{Seed: 1, RefreshStormRate: 2}
	_, err := New(Options{Workers: 1}).Run(context.Background(), job)
	if !errors.Is(err, faults.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
}

func TestRetriedRunMatchesUnabortedSchedule(t *testing.T) {
	// The epoch fault plans are attempt-independent, so a retried run
	// must land on the same result as the same schedule without the
	// abort draw (rate zeroed, same seed).
	seed := abortingSeed(t, 0.5, 1)
	withAbort := smallJob(t, "ILP2", policies.MemScale)
	withAbort.Faults = &faults.Config{
		Seed:               seed,
		RefreshStormRate:   0.4,
		RelockFailRate:     0.4,
		CounterCorruptRate: 0.3,
		ThermalRate:        0.3,
		TransientAbortRate: 0.5,
	}
	clean := withAbort
	fc := *withAbort.Faults
	fc.TransientAbortRate = 0
	clean.Faults = &fc

	eng := New(Options{Workers: 1})
	got, err := eng.Run(context.Background(), withAbort)
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	want, err := eng.Run(context.Background(), clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got.Attempts != 2 || want.Attempts != 1 {
		t.Fatalf("attempts = %d/%d, want 2/1", got.Attempts, want.Attempts)
	}
	bitdiff.Same(t, "retried vs clean", got, want, "Attempts", "Res.Faults.TransientAborts")
}
