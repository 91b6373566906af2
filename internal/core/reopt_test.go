package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/resilience"
	"repro/internal/testutil"
)

// TestReoptimizeFinishesUnconvergedFunction pins the dirty set's round
// limit rule: a function whose opt.Optimize stopped at the round limit
// stays marked, so reoptimize keeps working on it even though no
// mutation touches it. main below needs one Optimize round per store
// the next branch depends on, more than the input and dead-call stages
// give it, and holds no call HLO could transform; after HLO it must sit
// at Optimize's fixpoint.
func TestReoptimizeFinishesUnconvergedFunction(t *testing.T) {
	var src strings.Builder
	src.WriteString("module main;\nvar g int;\nfunc main() int {\n\tg = 0;\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&src, "\tif (g == %d) { g = %d; } else { g = 100; }\n", i, i+1)
	}
	src.WriteString("\treturn g;\n}\n")
	p := testutil.MustBuild(t, src.String())
	probe := p.Func("main:main").Clone("main:main")
	if opt.Optimize(probe, nil, nil) || opt.Optimize(probe, nil, nil) {
		t.Fatal("main converges within two Optimize calls: the input stages alone finish it")
	}

	core.Run(p, core.WholeProgram(), core.DefaultOptions())
	f := p.Func("main:main")
	before := f.String()
	if !opt.Optimize(f, nil, nil) || f.String() != before {
		t.Errorf("HLO left main short of Optimize's fixpoint:\n%s\none more Optimize gives:\n%s", before, f)
	}
}

// TestFreshCloneKeepsConvergenceMark pins the dirty set's rule for
// created functions: makeClone optimizes each new clone inside the
// clone mutation, and a clone whose Optimize converged stays clean, so
// reoptimize does not spend a no-op round on it. In the program below
// HLO (cloning only) makes exactly one clone and retargets one site in
// main; nothing touches the clone afterwards, so main is the only
// function reoptimize may visit, under every FailPolicy.
func TestFreshCloneKeepsConvergenceMark(t *testing.T) {
	const src = `
module main;
extern func print(x int) int;

func dispatch(op int, a int, b int) int {
	if (op == 0) { return a + b; }
	if (op == 1) { return a - b; }
	if (op == 2) { return a * b; }
	return 0;
}

func main() int {
	var i int;
	var sum int;
	for (i = 0; i < 50; i = i + 1) {
		sum = sum + dispatch(2, i, 3);
	}
	print(sum);
	return 0;
}
`
	for _, policy := range []resilience.FailPolicy{resilience.FailAbort, resilience.FailRollback, resilience.FailSkipFunc} {
		p := testutil.MustBuild(t, src)
		opts := core.DefaultOptions()
		opts.Inline = false
		opts.FailPolicy = policy
		rec := obs.New()
		opts.Obs = rec
		stats := core.Run(p, core.WholeProgram(), opts)
		if stats.Clones != 1 || stats.CloneRepls != 1 {
			t.Fatalf("policy %v: clones=%d repls=%d, want one clone with one retargeted site", policy, stats.Clones, stats.CloneRepls)
		}
		counts := map[string]int64{}
		for _, c := range rec.Counters() {
			counts[c.Name] = c.Value
		}
		if got := counts["hlo.reopt.runs"]; got != 1 {
			t.Errorf("policy %v: hlo.reopt.runs = %d, want 1 (main, whose call site was retargeted; the fresh clone is already at Optimize's fixpoint)", policy, got)
		}
	}
}
