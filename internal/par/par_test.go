package par

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDoConcurrent proves jobs really execute concurrently: two jobs
// rendezvous — each waits for the other to have started — which can only
// complete when both run at once.
func TestDoConcurrent(t *testing.T) {
	started := make([]chan struct{}, 2)
	for i := range started {
		started[i] = make(chan struct{})
	}
	err := Do(2, 2, func(_, i int) error {
		close(started[i])
		select {
		case <-started[1-i]:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("job %d never saw its peer start: jobs are sequential", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplit: the worker budget splits between outer jobs and per-job
// parallelism, and never exceeds the total.
func TestSplit(t *testing.T) {
	cases := []struct {
		budget, n, outer, inner int
	}{
		{1, 8, 1, 1},   // one worker: jobs run sequentially
		{8, 2, 2, 4},   // 2 outer workers × 4 inner workers
		{8, 8, 8, 1},   // all budget to the outer fan-out
		{8, 3, 3, 2},   // 3 outer workers, 8/3 = 2 each
		{0, 8, 1, 1},   // no budget = sequential
		{-3, 8, 1, 1},  // negative budget = sequential
		{16, 1, 1, 16}, // a single job gets everything
		{4, 0, 1, 4},   // no jobs: nothing runs, nothing divides by zero
	}
	for _, c := range cases {
		outer, inner := Split(c.budget, c.n)
		if outer != c.outer || inner != c.inner {
			t.Fatalf("Split(%d, %d) = (%d, %d), want (%d, %d)", c.budget, c.n, outer, inner, c.outer, c.inner)
		}
	}
}

// TestDoFirstErrorWins: the lowest-indexed error is returned whatever the
// scheduling.
func TestDoFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(8, workers, func(_, i int) error {
			if i >= 2 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2 failed" {
			t.Fatalf("workers=%d: got %v, want job 2's error", workers, err)
		}
	}
}

// TestDoWorkerIndexExclusive: two jobs running at once never share a
// worker index, and every index lies in [0, min(workers, n)). Per-worker
// state keyed by w — core.MeasureRange's one engine per worker — relies on
// this to go unlocked. The first min(workers, n) jobs rendezvous, so every
// worker holds a job at the same moment; a shared w then shows up as a
// second holder.
func TestDoWorkerIndexExclusive(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{64, 4}, {64, 8}, {3, 8}, {16, 1}} {
		width := min(c.workers, c.n)
		var mu sync.Mutex
		busy := make([]bool, width)
		ran := make([]bool, c.n)
		arrived := 0
		allIn := make(chan struct{})
		var release sync.Once
		err := Do(c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= width {
				return fmt.Errorf("job %d got worker %d outside [0, %d)", i, w, width)
			}
			mu.Lock()
			if busy[w] {
				mu.Unlock()
				release.Do(func() { close(allIn) }) // let the rendezvous end
				return fmt.Errorf("job %d got worker %d while another job held it", i, w)
			}
			busy[w], ran[i] = true, true
			if i < width {
				if arrived++; arrived == width {
					release.Do(func() { close(allIn) })
				}
			}
			mu.Unlock()
			if i < width {
				select {
				case <-allIn:
				case <-time.After(10 * time.Second):
					return fmt.Errorf("job %d: the %d workers never all ran at once", i, width)
				}
			}
			mu.Lock()
			busy[w] = false
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("n=%d workers=%d: job %d never ran", c.n, c.workers, i)
			}
		}
	}
}
