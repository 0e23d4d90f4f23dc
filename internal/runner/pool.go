package runner

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
)

// ForEach executes fn(ctx, i) for every index in [0, n) on a pool of
// at most workers goroutines (zero or negative means
// runtime.GOMAXPROCS(0)) and returns the per-index errors, indexed by
// submission order regardless of completion order.
//
// It is the shared fan-out primitive under Engine.RunEach and the
// fleet layer's per-node fan-out, with the pool invariants both need:
//
//   - Panic isolation: a panicking fn surfaces as a *PanicError at its
//     index instead of unwinding the pool; the other indices keep
//     running.
//   - Prompt drain on cancellation: once ctx is cancelled, indices not
//     yet started record ctx.Err() without invoking fn.
//   - Serialized completion callback: onDone (when non-nil) is invoked
//     once per finished index, in completion order, from one goroutine
//     at a time, with done counting finishes so far. The pool never
//     abandons a running fn.
//
// Determinism note: fn writes results into caller-owned, index-slotted
// storage, so outputs are positionally identical on any worker count;
// only onDone observes completion order.
func ForEach(ctx context.Context, workers, n int, fn func(context.Context, int) error, onDone func(done, index int, err error)) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		mu   sync.Mutex // guards next and done; serializes onDone
		next int
		done int
		wg   sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if onDone != nil {
			onDone(done, i, errs[i])
		}
	}
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(ctx, i)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Drain the remaining indices without running them.
					errs[i] = err
				} else {
					errs[i] = run(i)
				}
				finish(i)
			}
		}()
	}
	wg.Wait()
	return errs
}
