package experiments

import (
	"testing"
	"time"
)

func TestScheduleOrderSeedsLongestFirst(t *testing.T) {
	// Submission order is deliberately the reverse of the expected
	// schedule: never-seen cells must rank by the static seed table —
	// training first, then unoptimized builds, fully optimized last.
	labels := []string{
		"cell/table1/022.li/both",
		"cell/table1/022.li/c",
		"cell/table1/022.li/inline",
		"cell/table1/022.li/p",
		"cell/table1/022.li/clone",
		"cell/table1/022.li/base",
		"cell/fig7/022.li/neither",
		"cell/table1/022.li/train",
	}
	order := scheduleOrder(len(labels), func(i int) string { return labels[i] })
	want := []int{7, 6, 5, 4, 3, 2, 1, 0}
	for p := range want {
		if order[p] != want[p] {
			t.Fatalf("seed schedule = %v, want %v (labels %v)", order, want, labels)
		}
	}
}

func TestScheduleOrderObservedCostBeatsSeeds(t *testing.T) {
	// A cell that has run before is scheduled by its measured duration,
	// which outranks every seed weight — even "train", the highest seed.
	labels := []string{
		"cell/sched-test/a/train",
		"cell/sched-test/b/both", // lowest seed weight, but measured slow
		"cell/sched-test/c/both", // measured fast
	}
	noteCost(labels[1], 5*time.Second)
	noteCost(labels[2], 10*time.Millisecond)
	order := scheduleOrder(len(labels), func(i int) string { return labels[i] })
	want := []int{1, 2, 0}
	for p := range want {
		if order[p] != want[p] {
			t.Fatalf("schedule = %v, want %v", order, want)
		}
	}
}

func TestScheduleOrderFig8BudgetsEarlierFirst(t *testing.T) {
	// Smaller stop-after budgets inline less and simulate longer, so
	// they rank earlier on a cold start.
	labels := []string{"x/ops40", "x/ops5", "x/ops160"}
	order := scheduleOrder(len(labels), func(i int) string { return labels[i] })
	want := []int{1, 0, 2}
	for p := range want {
		if order[p] != want[p] {
			t.Fatalf("schedule = %v, want %v", order, want)
		}
	}
}

func TestScheduleOrderVectorCells(t *testing.T) {
	// Per-vector cells of a split ref deck ("…/c/v3") rank like their
	// configuration: the vector suffix only names a slice of the workload.
	if a, b := seedWeight("cell/table1/124.m88ksim/c/v3"),
		seedWeight("cell/table1/022.li/c"); a != b {
		t.Fatalf("vector suffix changes seed weight: %d vs %d", a, b)
	}
}

func TestScheduleCostMemoryNamespacedByLabel(t *testing.T) {
	// noteCost on one cell's label must not skew another cell's cost
	// hint for the same benchmark: cost memory keys on the full label.
	inline := "cell/sched-label-test/085.gcc/inline"
	both := "cell/sched-label-test/085.gcc/both"
	before := costHint(both)
	noteCost(inline, 30*time.Second)
	if got := costHint(both); got != before {
		t.Fatalf("both cost hint moved from %d to %d after an inline observation", before, got)
	}
	if costHint(inline) <= before {
		t.Fatalf("inline observation did not raise its own hint above the seed")
	}
}

func TestScheduleOrderTiesKeepSubmissionOrder(t *testing.T) {
	// Equal weights (unknown suffixes) must preserve submission order so
	// the schedule is deterministic for a fixed cost history.
	labels := []string{"x/q", "x/r", "x/s", "x/t"}
	order := scheduleOrder(len(labels), func(i int) string { return labels[i] })
	for p := range labels {
		if order[p] != p {
			t.Fatalf("tied schedule = %v, want identity", order)
		}
	}
}
