// Package par is the deterministic parallel execution layer of the
// experiment harness. The paper's whole evaluation is a matrix of
// independent compiles — Table 1 is benchmarks × scopes, Figure 6 is
// benchmarks × inline/clone settings, Figure 8 sweeps budgets ×
// stop-after points — and every cell can run concurrently as long as the
// observable outputs stay byte-identical to a serial run.
//
// Two properties make the fan-out deterministic:
//
//   - Results are indexed, not streamed: task i writes slot i of a
//     caller-owned slice, so assembly order never depends on completion
//     order. The first error by submission index wins.
//   - Observability is per-task: DoObsNamed hands every task a private
//     *obs.Recorder and merges them into the parent in submission order
//     after the barrier, so remark streams (and span structure) are
//     identical under any worker count.
//
// Workers claim tasks in submission order; DESIGN.md ("Cell fan-out")
// records the measurement behind not reordering them.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// DefaultWorkers is the worker count used when the caller passes 0 or a
// negative value: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Do runs task(0) .. task(n-1) on at most workers goroutines and waits
// for all of them. workers <= 0 selects DefaultWorkers. With one worker
// (or one task) everything runs on the calling goroutine in submission
// order, stopping at the first error — the serial reference behaviour.
// With more workers every task runs regardless of other tasks' errors,
// and the error of the lowest-indexed failing task is returned, so the
// reported error is deterministic too.
func Do(workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DoObsNamed is Do with ordered observability: when parent is enabled,
// every task receives its own fresh recorder, and after all tasks
// complete the per-task recorders are merged into parent in submission
// order (even if some tasks failed, so partial traces stay
// inspectable). When parent is nil the tasks get a nil recorder and pay
// nothing.
//
// When label is non-nil (and parent enabled), task i runs inside a span
// named label(i) on its private recorder. The span is the task's
// flight-record root — it carries the cell's wall time, thread CPU, and
// allocation deltas, so obs.TopSpans over the labels ranks stragglers
// and obs.Aggregate attributes the whole fan-out's wall clock cell by
// cell. Labels must be pure functions of i to preserve run-to-run
// determinism.
func DoObsNamed(workers int, parent *obs.Recorder, n int, label func(i int) string, task func(i int, rec *obs.Recorder) error) error {
	if !parent.Enabled() {
		return Do(workers, n, func(i int) error { return task(i, nil) })
	}
	recs := make([]*obs.Recorder, n)
	for i := range recs {
		recs[i] = obs.New()
	}
	err := Do(workers, n, func(i int) error {
		if label == nil {
			return task(i, recs[i])
		}
		t := recs[i].Begin(label(i))
		defer t.End()
		return task(i, recs[i])
	})
	for _, rec := range recs {
		parent.Merge(rec)
	}
	return err
}
