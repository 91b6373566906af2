package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/specsuite"
)

// Cell scheduling. The experiment matrices fan out over a worker pool
// behind a barrier, so total wall clock is set by whoever finishes
// last: claiming the longest cells first shrinks that tail, while the
// submission-order merge in par keeps every observable output
// byte-identical under any schedule. Cost knowledge comes from two
// sources: durations observed earlier in the same process (hlobench
// -all runs Table 1 cells again for Figure 6, and every -fig8points
// sweep re-times the same budgets), and a static seed table for cells
// never seen — training and unoptimized builds simulate longest, so
// they go first on a cold start.

// cellCosts remembers the last observed duration of every cell label,
// label → int64 nanoseconds. A sync.Map because cells on different
// workers record concurrently.
var cellCosts sync.Map

// noteCost records an observed cell duration for later scheduling.
func noteCost(label string, d time.Duration) {
	cellCosts.Store(label, int64(d))
}

// costHint is the scheduling weight of a cell: the last observed
// duration when the label has run before, else a static seed weight.
// Observed costs are offset above every seed so a measured cell always
// outranks guesses.
func costHint(label string) int64 {
	if v, ok := cellCosts.Load(label); ok {
		return v.(int64) + 1<<40
	}
	return seedWeight(label)
}

// seedWeight ranks cells that have never run, by the configuration
// suffix of the label. Training interprets the whole training input;
// "neither"/"base" builds skip the optimizer and so simulate the most
// cycles; fully optimized builds run fastest. Figure 8 points scale
// with the operation budget: later stop-after points inline more and
// run faster, but compile longer — the dominant term at small budgets
// is simulation, so earlier points rank longer.
func seedWeight(label string) int64 {
	segs := strings.Split(label, "/")
	li := len(segs) - 1
	last := segs[li]
	// Per-vector cells of a split ref deck ("…/c/v3") rank by their
	// configuration segment — the vector suffix only names the slice of
	// the workload, and every slice of a deck costs about the same.
	if n, ok := strings.CutPrefix(last, "v"); ok && li >= 1 {
		if _, err := strconv.Atoi(n); err == nil && n != "" {
			li--
			last = segs[li]
		}
	}
	switch last {
	case "train":
		return 900
	case "neither":
		return 800
	case "base":
		return 700
	case "clone":
		return 600
	case "p":
		return 550
	case "inline":
		return 500
	case "c":
		return 450
	case "cp", "both":
		return 400
	}
	if n, ok := strings.CutPrefix(last, "ops"); ok {
		if ops, err := strconv.Atoi(n); err == nil {
			return 300 - int64(ops)
		}
	}
	return 100
}

// scheduleOrder returns the claim order for n cells: descending cost
// hint, ties broken by submission index, so the order is a pure
// function of the labels and the cost history — deterministic within a
// process for a fixed history.
func scheduleOrder(n int, label func(i int) string) []int {
	order := make([]int, n)
	costs := make([]int64, n)
	for i := range order {
		order[i] = i
		costs[i] = costHint(label(i))
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}

// warmTrain runs the shared training stage of each benchmark as its
// own scheduled cell ("cell/<exp>/<bench>/train"). The profile-fed
// cells of the experiment then hit the training cache, so training
// cost is attributed to a dedicated span instead of inflating
// whichever measured cell happened to get there first, and the
// scheduler can start the long training runs before anything else.
func warmTrain(exp string, benches []*specsuite.Benchmark) error {
	label := func(i int) string {
		return "cell/" + exp + "/" + benches[i].Name + "/train"
	}
	return forEachCell(len(benches), label, func(i int, rec *obs.Recorder) error {
		b := benches[i]
		if _, err := cache.TrainProfileObs(context.Background(), b.Sources, b.Train, nil, rec); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		return nil
	})
}
