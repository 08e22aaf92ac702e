// Package par is the system's one fan-out: every parallel loop — the
// engine's batches, the store's ingest staging, training, scoring and
// cascade evaluation — runs its iterations through Do. Answers never depend
// on the schedule: callers give each job its own output slot and keep
// scratch state per goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of goroutines Do runs n jobs on: workers, or
// GOMAXPROCS when workers <= 0, never more than n and at least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Do calls fn(w, i) once for each i in [0, n) on Workers(workers, n)
// goroutines, the caller's among them. w in [0, Workers(workers, n)) names
// the goroutine, so fn may keep scratch state per w. Jobs start in index
// order. After the first error no new job starts, and Do returns that error
// once the jobs already running finish. A panic in fn is not recovered.
func Do(n, workers int, fn func(w, i int) error) error {
	nw := Workers(workers, n)
	if nw == 1 {
		for i := range n {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// All the shared state is one allocation.
	p := &pool{fn: fn, n: int64(n)}
	p.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func() {
			defer p.wg.Done()
			p.work(w)
		}()
	}
	p.work(0)
	p.wg.Wait()
	return p.err
}

type pool struct {
	fn     func(w, i int) error
	n      int64
	next   atomic.Int64
	failed atomic.Bool
	err    error // written once, by the goroutine that sets failed
	wg     sync.WaitGroup
}

// work runs jobs on goroutine w until none is left or one has failed.
func (p *pool) work(w int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n || p.failed.Load() {
			return
		}
		if err := p.fn(w, int(i)); err != nil {
			if p.failed.CompareAndSwap(false, true) {
				p.err = err
			}
			return
		}
	}
}
