package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoRunsEachIndexOnce: every index in [0, n) runs exactly once, on a
// goroutine named below Workers(workers, n), for job counts below, at and
// above the worker count.
func TestDoRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{1, 2, 3, 7, 100} {
			nw := Workers(workers, n)
			runs := make([]atomic.Int32, n)
			var badW atomic.Int32
			if err := Do(n, workers, func(w, i int) error {
				if w < 0 || w >= nw {
					badW.Store(int32(w) + 1)
				}
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if w := badW.Load(); w != 0 {
				t.Fatalf("workers=%d n=%d: goroutine %d, want below %d", workers, n, w-1, nw)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestDoNoJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Do(0, workers, func(w, i int) error {
			t.Errorf("workers=%d: fn(%d, %d) called with n = 0", workers, w, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
		{8, 3, 3},
		{3, 8, 3},
		{1, 100, 1},
		{4, 0, 1},
		{0, 0, 1},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestDoStartsOnlyNGoroutines: with fewer jobs than workers, Do runs the n
// jobs at once — each waits until all n have started, which only n distinct
// goroutines can do — and starts no goroutine beyond them: the caller runs
// one of the n itself.
func TestDoStartsOnlyNGoroutines(t *testing.T) {
	const n, workers = 3, 16
	base := runtime.NumGoroutine()
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var extra atomic.Int32
	var seen [workers]atomic.Bool
	err := Do(n, workers, func(w, i int) error {
		if seen[w].Swap(true) {
			return errors.New("two jobs ran on one goroutine")
		}
		arrived.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return errors.New("the jobs never all ran at once")
		}
		// The barrier goroutine above is the one other goroutine running.
		extra.Store(int32(runtime.NumGoroutine() - base - 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := extra.Load(); got > n-1 {
		t.Fatalf("%d goroutines besides the caller ran %d jobs, want %d", got, n, n-1)
	}
}

// TestDoStopsAtFirstError: once a job fails no new job starts, and Do
// returns that error only after the jobs already running have finished.
func TestDoStopsAtFirstError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		boom := errors.New("boom")
		const failAt = 5
		var started, finished, late atomic.Int32
		var failed atomic.Bool
		failing := make(chan struct{})
		err := Do(1000, workers, func(w, i int) error {
			if failed.Load() {
				late.Add(1)
			}
			started.Add(1)
			defer finished.Add(1)
			switch {
			case i < failAt:
				return nil
			case i == failAt:
				failed.Store(true)
				close(failing)
				return boom
			}
			// A job running when the failure lands holds on a little past
			// it, so Do must wait for it.
			select {
			case <-failing:
			case <-time.After(10 * time.Second):
				t.Error("the failing job never ran")
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("workers=%d: Do returned with %d of %d started jobs unfinished", workers, s-f, s)
		}
		// A goroutine that claimed its index just as the job failed may
		// still start it; none starts a second.
		if l := late.Load(); l >= int32(workers) {
			t.Fatalf("workers=%d: %d jobs started after the failure", workers, l)
		}
		if s := started.Load(); s > failAt+int32(2*workers) {
			t.Fatalf("workers=%d: %d jobs started, want the failure to stop the rest", workers, s)
		}
	}
}

// TestDoReturnsFirstError: of several failing jobs the error of the one
// that failed first in time is returned, not the last.
func TestDoReturnsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	release := make(chan struct{})
	err := Do(2, 2, func(w, i int) error {
		if i == 0 {
			defer close(release)
			return first
		}
		<-release
		return second
	})
	if err != first {
		t.Fatalf("err = %v, want %v", err, first)
	}
}

// TestDoAllocs: a call costs its shared state plus one closure per goroutine
// it starts, whatever n is, and nothing at all on one goroutine.
func TestDoAllocs(t *testing.T) {
	fn := func(w, i int) error { return nil }
	for _, tc := range []struct {
		workers, n int
		max        float64
	}{
		{1, 1000, 0},
		{2, 1000, 2},
		{4, 1000, 4},
	} {
		if got := testing.AllocsPerRun(50, func() { _ = Do(tc.n, tc.workers, fn) }); got > tc.max {
			t.Errorf("Do(%d, %d): %.1f allocations per call, want at most %.0f", tc.n, tc.workers, got, tc.max)
		}
	}
}
