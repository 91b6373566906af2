package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/specsuite"
	"repro/internal/testutil"
)

const obsCounterSrc = `module main;
func helper(x int) int { return x * 3 + 1; }
func twice(x int) int { return helper(x) + helper(x + 1); }
func main() int {
	var s int;
	var i int;
	for (i = 0; i < 20; i = i + 1) { s = s + twice(i); }
	return s;
}
`

// TestHLOOverheadCounters pins HLO's self-attribution: an observed run
// publishes hlo.bookkeeping-ns (the phase spans' full-scope size/cost
// walks), and with VerifyEach also hlo.verify-ns/hlo.verify-count —
// one verification per function touched by an accepted mutation. A
// 022.li peak build publishes the re-optimization work counts
// hlo.reopt.runs/hlo.reopt.skipped and the scalar optimizer's
// hlo.opt.rounds/hlo.opt.cp.visits/hlo.opt.cp.cells/hlo.opt.cse.scans:
// all nonzero, and deterministic.
func TestHLOOverheadCounters(t *testing.T) {
	run := func(verifyEach bool) map[string]int64 {
		t.Helper()
		p := testutil.MustBuild(t, obsCounterSrc)
		opts := core.DefaultOptions()
		opts.VerifyEach = verifyEach
		rec := obs.New()
		opts.Obs = rec
		stats := core.Run(p, core.WholeProgram(), opts)
		if stats.Ops == 0 {
			t.Fatal("no transformations performed — counters are vacuous")
		}
		out := map[string]int64{}
		for _, c := range rec.Counters() {
			out[c.Name] = c.Value
		}
		return out
	}

	verified := run(true)
	if verified["hlo.bookkeeping-ns"] <= 0 {
		t.Errorf("hlo.bookkeeping-ns = %d, want > 0", verified["hlo.bookkeeping-ns"])
	}
	if verified["hlo.verify-count"] <= 0 {
		t.Errorf("hlo.verify-count = %d, want > 0", verified["hlo.verify-count"])
	}
	if verified["hlo.verify-ns"] <= 0 {
		t.Errorf("hlo.verify-ns = %d, want > 0", verified["hlo.verify-ns"])
	}

	plain := run(false)
	if _, ok := plain["hlo.verify-count"]; ok {
		t.Error("hlo.verify-count published without VerifyEach")
	}
	if plain["hlo.bookkeeping-ns"] <= 0 {
		t.Errorf("hlo.bookkeeping-ns = %d, want > 0 without VerifyEach too", plain["hlo.bookkeeping-ns"])
	}

	li, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	peak := func() map[string]int64 {
		t.Helper()
		opts := driver.DefaultOptions(li.Train)
		rec := obs.New()
		opts.Obs = rec
		if _, err := driver.Compile(li.Sources, opts); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, c := range rec.Counters() {
			out[c.Name] = c.Value
		}
		return out
	}
	first, second := peak(), peak()
	for _, name := range []string{"hlo.reopt.runs", "hlo.reopt.skipped", "hlo.opt.rounds", "hlo.opt.cp.visits", "hlo.opt.cp.cells", "hlo.opt.cse.scans"} {
		if first[name] <= 0 {
			t.Errorf("022.li peak: %s = %d, want > 0", name, first[name])
		}
		if first[name] != second[name] {
			t.Errorf("022.li peak: %s = %d then %d, want a deterministic count", name, first[name], second[name])
		}
	}
	t.Logf("022.li peak: hlo.reopt.runs = %d, hlo.reopt.skipped = %d, hlo.opt.rounds = %d, hlo.opt.cp.visits = %d, hlo.opt.cp.cells = %d, hlo.opt.cse.scans = %d",
		first["hlo.reopt.runs"], first["hlo.reopt.skipped"], first["hlo.opt.rounds"], first["hlo.opt.cp.visits"], first["hlo.opt.cp.cells"], first["hlo.opt.cse.scans"])
}
