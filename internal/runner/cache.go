package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"memscale/internal/config"
	"memscale/internal/power"
	"memscale/internal/sim"
	"memscale/internal/workload"
)

// BaselineCache memoizes unmanaged baseline simulations. Every figure
// pairs each managed run against the baseline of the same (mix,
// configuration, run length), and a policy sweep shares one baseline
// across all its schemes, so without memoization the harness simulates
// the identical run over and over. The cache is safe for concurrent
// use and guarantees each distinct baseline executes exactly once:
// concurrent requests for the same key wait on the one simulation
// instead of duplicating it.
//
// Each baseline simulates on a goroutine the cache owns, so a paired
// run can overlap it with its managed simulation. The goroutine lives
// only as long as some caller still wants its result: once the last
// one gives up, the simulation is cancelled and its entry dropped.
type BaselineCache struct {
	mu      sync.Mutex
	entries map[string]*baselineEntry

	hits, misses int
}

type baselineEntry struct {
	ready  chan struct{} // closed once res/nonMem/err are final
	res    sim.Result
	nonMem float64
	err    error

	claims int                // callers still waiting on the result; guarded by the cache mutex
	cancel context.CancelFunc // stops the simulation
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache {
	return &BaselineCache{entries: map[string]*baselineEntry{}}
}

// baselineKey canonicalizes the baseline identity. The baseline runs
// no governor, so gamma is irrelevant and is zeroed out of the key:
// sweeps over gamma all share one baseline.
func baselineKey(cfg config.Config, mixName string, epochs int) string {
	norm := cfg
	norm.Policy.Gamma = 0
	return fmt.Sprintf("%s|%d|%+v", mixName, epochs, norm)
}

// Baseline returns the unmanaged run of mix under cfg for the given
// epoch count, together with the rest-of-system power calibrated from
// its average DIMM power (Section 4.1), simulating it only on the
// first request. Errors are not cached: a failed or cancelled
// computation is discarded so a later caller can retry. A panicking
// baseline fails every caller waiting on it with a *PanicError.
//
// The trailing int argument is ignored; it is kept only so existing
// callers still compile.
func (c *BaselineCache) Baseline(ctx context.Context, cfg config.Config, mix workload.Mix, epochs, _ int) (sim.Result, float64, error) {
	cl := c.claim(cfg, mix, epochs)
	defer cl.release()
	if err := cl.wait(ctx); err != nil {
		return sim.Result{}, 0, err
	}
	return cl.e.res, cl.e.nonMem, nil
}

// Stats reports the cache behaviour so far: hits is the number of
// lookups served from (or blocked on) an existing entry, misses the
// number of baseline simulations actually executed.
func (c *BaselineCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// baselineClaim is one caller's interest in a baseline. The caller
// must release it exactly once.
type baselineClaim struct {
	c   *BaselineCache
	key string
	e   *baselineEntry
}

// claim registers interest in a baseline, starting its simulation on a
// cache-owned goroutine when no entry exists yet.
func (c *BaselineCache) claim(cfg config.Config, mix workload.Mix, epochs int) *baselineClaim {
	key := baselineKey(cfg, mix.Name, epochs)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		ctx, cancel := context.WithCancel(context.Background())
		e = &baselineEntry{ready: make(chan struct{}), cancel: cancel}
		c.entries[key] = e
		go c.simulate(ctx, key, e, cfg, mix, epochs)
	}
	e.claims++
	return &baselineClaim{c: c, key: key, e: e}
}

// simulate runs one baseline and publishes it to the entry's waiters.
// A panic is recovered here, where it happens: it would otherwise kill
// the process, and the waiters would block on ready forever.
func (c *BaselineCache) simulate(ctx context.Context, key string, e *baselineEntry, cfg config.Config, mix workload.Mix, epochs int) {
	defer func() {
		if r := recover(); r != nil {
			e.res, e.nonMem, e.err = sim.Result{}, 0, &PanicError{Value: r, Stack: debug.Stack()}
		}
		if e.err != nil {
			c.forget(key, e)
		}
		e.cancel()
		close(e.ready)
	}()
	e.res, e.nonMem, e.err = runBaseline(ctx, cfg, mix, epochs)
}

// forget drops e from the cache unless a newer entry replaced it.
func (c *BaselineCache) forget(key string, e *baselineEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == e {
		delete(c.entries, key)
	}
}

// wait blocks until the baseline is final or ctx ends.
func (cl *baselineClaim) wait(ctx context.Context) error {
	select {
	case <-cl.e.ready:
		return cl.e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// resolved reports the calibrated rest-of-system power once the
// baseline has finished successfully, without blocking.
func (cl *baselineClaim) resolved() (float64, bool) {
	select {
	case <-cl.e.ready:
		return cl.e.nonMem, cl.e.err == nil
	default:
		return 0, false
	}
}

// release gives up the claim. The last claim on an unfinished baseline
// cancels it and waits for its goroutine to stop, so no simulation
// outlives every caller that wanted it.
func (cl *baselineClaim) release() {
	c, e := cl.c, cl.e
	c.mu.Lock()
	e.claims--
	last := e.claims == 0
	if last {
		select {
		case <-e.ready:
		default:
			e.cancel()
			if c.entries[cl.key] == e {
				delete(c.entries, cl.key)
			}
		}
	}
	c.mu.Unlock()
	if last {
		<-e.ready
	}
}

// runBaseline executes one unmanaged run and calibrates the
// rest-of-system power from it.
func runBaseline(ctx context.Context, cfg config.Config, mix workload.Mix, epochs int) (sim.Result, float64, error) {
	streams, err := mix.Streams(&cfg)
	if err != nil {
		return sim.Result{}, 0, err
	}
	s, err := sim.New(cfg, streams, sim.Options{})
	if err != nil {
		return sim.Result{}, 0, err
	}
	res, err := s.RunForContext(ctx, config.Time(epochs)*cfg.Policy.EpochLength)
	if err != nil {
		return sim.Result{}, 0, err
	}
	nonMem := power.NewModel(&cfg).RestOfSystemPower(res.DIMMAvgWatts)
	return res, nonMem, nil
}
