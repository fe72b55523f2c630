// Package par is the one worker pool behind every fan-out of the
// reproduction: trials within a measurement (internal/core), rows within an
// experiment or scenario (internal/harness, internal/scenario) and
// scenarios within a campaign (internal/campaign). Split fixes how a worker
// budget divides between two nested levels; Do runs indexed jobs and
// reports the lowest-indexed error. Callers write results into slots
// indexed by job and merge them in index order, so their outputs never
// depend on scheduling.
package par

import (
	"sync"
	"sync/atomic"
)

// Split divides a worker budget between up to n concurrent outer jobs and
// the parallelism each job may use inside: outer = min(budget, n) jobs run
// at once and each receives inner = budget/outer workers, so
// outer × inner ≤ budget. A budget or n below 1 counts as 1.
func Split(budget, n int) (outer, inner int) {
	budget = max(budget, 1)
	outer = max(min(budget, n), 1)
	return outer, budget / outer
}

// Do runs job(w, i) for every i in [0, n) on at most workers goroutines
// and returns the lowest-indexed error, independent of scheduling. w names
// the worker running the job, in [0, min(workers, n)): two jobs running at
// once never share a w, so a job may keep per-worker state indexed by w
// without locking.
//
// Jobs start in index order. Once job i has failed, jobs above i are
// skipped — the caller stops at the first error in index order, so their
// results are never read — while jobs below i still run, because one of
// them failing would change the reported error. With at most one worker
// the jobs run inline, in order, and stop at the first error.
func Do(n, workers int, job func(w, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var minFailed atomic.Int64
	minFailed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < minFailed.Load(); i = next.Add(1) - 1 {
				if errs[i] = job(w, int(i)); errs[i] == nil {
					continue
				}
				for cur := minFailed.Load(); i < cur && !minFailed.CompareAndSwap(cur, i); {
					cur = minFailed.Load()
				}
			}
		}()
	}
	wg.Wait()
	if f := minFailed.Load(); f < int64(n) {
		return errs[f]
	}
	return nil
}
