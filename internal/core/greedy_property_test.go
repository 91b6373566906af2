package core_test

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/randprog"
)

// HLO's correctness contract, checked as a testing/quick property over
// random programs:
//
//  1. every mutation passes ir.VerifyFuncStrict (Options.VerifyEach
//     verifies the touched functions after each accepted inline, clone
//     retarget and outline — a failure latches and fails the compile),
//  2. the budget invariant holds at every decision sync point: an
//     accepted remark's projected cost never exceeds the stage headroom
//     recorded when the decision was made (Cost ≤ Headroom), and
//  3. whole-program verification of the final IR succeeds (the driver
//     runs ir.Program.Verify post-HLO).

// propConfig is the quick-generated input: a program seed plus the
// budget/scope axes.
type propConfig struct {
	Seed   int64
	Budget uint8
	Cross  bool
}

func TestGreedyVerifiesAndRespectsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles many random programs; skipped under -short")
	}
	check := func(in propConfig) bool {
		budget := 50 + int(in.Budget)%200 // 50..249%
		sources := randprog.Generate(in.Seed, randprog.DefaultConfig())
		opts := driver.Options{CrossModule: in.Cross}
		opts.HLO = core.DefaultOptions()
		opts.HLO.Budget = budget
		opts.HLO.VerifyEach = true
		rec := obs.New()
		opts.Obs = rec
		c, err := driver.Compile(sources, opts)
		if err != nil {
			t.Logf("seed %d b%d cross=%v: compile failed: %v", in.Seed, budget, in.Cross, err)
			return false
		}
		if err := c.IR.Verify(); err != nil {
			t.Logf("seed %d: final IR broken: %v", in.Seed, err)
			return false
		}
		for _, rm := range rec.Remarks() {
			if !rm.Accepted || rm.Cost == 0 && rm.Headroom == 0 {
				continue // rejections; accepts outside the budgeted phases
			}
			if rm.Cost > rm.Headroom {
				t.Logf("seed %d b%d: accepted %s %s→%s site %d with cost %d > headroom %d",
					in.Seed, budget, rm.Kind, rm.Caller, rm.Callee, rm.Site, rm.Cost, rm.Headroom)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
