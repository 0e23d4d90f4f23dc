package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"memscale/internal/config"
	"memscale/internal/policies"
	"memscale/internal/sim"
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

// panicAtEpoch wraps a governor and panics in the decision of the
// given epoch.
type panicAtEpoch struct {
	sim.Governor
	epoch, seen int
}

func (g *panicAtEpoch) ProfileComplete(p sim.Profile) config.FreqMHz {
	if g.seen == g.epoch {
		panic(fmt.Sprintf("governor panic at epoch %d", g.epoch))
	}
	g.seen++
	return g.Governor.ProfileComplete(p)
}

// TestInjectedPanicIsolatedFromBatch: one job of a batch runs a
// governor that panics at epoch 1. That job alone fails, with a
// *PanicError carrying the panic value; the others complete.
func TestInjectedPanicIsolatedFromBatch(t *testing.T) {
	poisoned := policies.MemScale
	poisoned.Name = "MemScale (panics at epoch 1)"
	poisoned.Speculative = nil
	poisoned.Governor = func(cfg *config.Config, nonMem float64) sim.Governor {
		return &panicAtEpoch{Governor: policies.MemScale.Governor(cfg, nonMem), epoch: 1}
	}
	jobs := []Job{
		smallJob(t, "ILP2", policies.MemScale),
		smallJob(t, "MID1", poisoned),
		smallJob(t, "ILP3", policies.MemScale),
	}
	jobs[1].Epochs = 2
	eng := New(Options{Workers: 3})
	outs, errs := eng.RunEach(context.Background(), jobs)
	if !errors.Is(errs[1], ErrRunPanicked) {
		t.Fatalf("panicked job err = %v, want ErrRunPanicked", errs[1])
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("err %T is not a *PanicError", errs[1])
	}
	if pe.Value != "governor panic at epoch 1" {
		t.Errorf("panic value = %#v, want the governor's", pe.Value)
	}
	if outs[1].Res.Duration != 0 {
		t.Errorf("panicked job left a non-zero outcome: %+v", outs[1])
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
