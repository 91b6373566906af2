package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100, 0} {
		n := 57
		hits := make([]int32, n)
		if err := Do(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestDoZeroTasks(t *testing.T) {
	if err := Do(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestDoFirstErrorByIndexWins(t *testing.T) {
	// Whatever completion order the scheduler picks, the error of the
	// lowest-indexed failing task must be returned.
	for trial := 0; trial < 20; trial++ {
		err := Do(8, 30, func(i int) error {
			if i == 7 || i == 23 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("trial %d: got %v, want task 7's error", trial, err)
		}
	}
}

func TestDoSerialStopsAtFirstError(t *testing.T) {
	ran := 0
	err := Do(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Fatalf("serial mode must stop at the first error: err=%v ran=%d", err, ran)
	}
}

func TestDoObsMergesInSubmissionOrder(t *testing.T) {
	reference := func() []obs.Remark {
		parent := obs.New()
		for i := 0; i < 16; i++ {
			parent.Remark(obs.Remark{Kind: "test", Site: int32(i)})
			parent.Remark(obs.Remark{Kind: "test", Site: int32(i), Detail: "second"})
		}
		return parent.Remarks()
	}()
	for _, workers := range []int{1, 2, 8} {
		parent := obs.New()
		err := DoObsNamed(workers, parent, 16, nil, func(i int, rec *obs.Recorder) error {
			rec.Remark(obs.Remark{Kind: "test", Site: int32(i)})
			rec.Remark(obs.Remark{Kind: "test", Site: int32(i), Detail: "second"})
			rec.Count("n", 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := parent.Remarks()
		if len(got) != len(reference) {
			t.Fatalf("workers=%d: %d remarks, want %d", workers, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("workers=%d: remark %d = %+v, want %+v", workers, i, got[i], reference[i])
			}
		}
		cs := parent.Counters()
		if len(cs) != 1 || cs[0].Value != 16 {
			t.Fatalf("workers=%d: counters = %+v", workers, cs)
		}
	}
}

func TestDoObsNilParentPassesNilRecorders(t *testing.T) {
	err := DoObsNamed(4, nil, 8, nil, func(i int, rec *obs.Recorder) error {
		if rec.Enabled() {
			return errors.New("expected nil recorder")
		}
		rec.Remark(obs.Remark{}) // must be a safe no-op
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoObsMergesPartialTracesOnError(t *testing.T) {
	parent := obs.New()
	err := DoObsNamed(4, parent, 8, nil, func(i int, rec *obs.Recorder) error {
		rec.Remark(obs.Remark{Kind: "test", Site: int32(i)})
		if i == 2 {
			return errors.New("fail")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := len(parent.Remarks()); got != 8 {
		t.Fatalf("partial traces lost: %d remarks, want 8", got)
	}
}

func TestDoObsNamedWrapsTasksInLabeledSpans(t *testing.T) {
	for _, workers := range []int{1, 4} {
		parent := obs.New()
		err := DoObsNamed(workers, parent, 6, func(i int) string {
			return fmt.Sprintf("cell/%d", i)
		}, func(i int, rec *obs.Recorder) error {
			rec.Begin("inner").End()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		spans := parent.Spans()
		if len(spans) != 12 {
			t.Fatalf("workers=%d: %d spans, want 12", workers, len(spans))
		}
		for i := 0; i < 6; i++ {
			root, inner := spans[2*i], spans[2*i+1]
			if root.Name != fmt.Sprintf("cell/%d", i) || root.Depth != 0 || root.Open {
				t.Fatalf("workers=%d: root %d = %+v", workers, i, root)
			}
			if inner.Name != "inner" || inner.Depth != 1 {
				t.Fatalf("workers=%d: inner %d = %+v", workers, i, inner)
			}
			if root.Dur < inner.Dur {
				t.Fatalf("workers=%d: root shorter than its child", workers)
			}
		}
	}
}
