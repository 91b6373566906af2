package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/resilience"
	"repro/internal/specsuite"
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

// TestFreshCloneKeepsConvergenceMark pins the dirty set's rules for a
// clone mutation: makeClone optimizes each new clone inside the clone
// mutation, and a clone whose Optimize converged stays clean, so
// reoptimize does not spend a no-op round on it; and retargeting a call
// site to the clone leaves its caller's mark as it was. In the program
// below HLO (cloning only) makes exactly one clone and retargets one
// site in main, which the input stage left clean; nothing touches the
// clone afterwards, so reoptimize visits no function, under every
// FailPolicy.
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
		if got := counts["hlo.reopt.runs"]; got != 0 {
			t.Errorf("policy %v: hlo.reopt.runs = %d, want 0 (the fresh clone is already at Optimize's fixpoint, and the retarget leaves main's mark clean)", policy, got)
		}
	}
}

// TestSkippedOptimizeIsNoOp checks every skip the dirty set makes: at
// the dead-call stage (a clean function calling no pure routine) and in
// reoptimize (a clean function, which a clone retarget or an inline
// into it leaves clean when it was). The corpus, the specsuite and 40
// randprog programs, compiles at peak (cross-module, profiled); for
// every function a skip rule passed over, opt.Optimize on a clone under
// the same purity facts must converge in its first round with no
// change. Both rules must fire: the hook must see more skips than
// reoptimize counts in hlo.reopt.skipped.
func TestSkippedOptimizeIsNoOp(t *testing.T) {
	type program struct {
		name    string
		sources []string
		train   []int64
	}
	var progs []program
	for _, b := range specsuite.All() {
		progs = append(progs, program{b.Name, b.Sources, b.Train})
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := randprog.FuzzConfig()
		if seed%2 == 1 {
			cfg = randprog.Config{
				Modules: 1 + int(seed%4), Funcs: 2 + int(seed/4%5),
				Stmts: 6, Depth: 2, ExprDepth: 3, BoundedCallDepth: true,
			}
		}
		progs = append(progs, program{fmt.Sprintf("randprog/%d", seed), randprog.Generate(seed, cfg), []int64{seed % 16, 3, 7}})
	}
	var skips, reoptSkipped int64
	for _, pr := range progs {
		p, err := driver.Frontend(pr.sources)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		db, err := driver.TrainProfile(pr.sources, pr.train)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		db.Attach(p)
		opts := core.DefaultOptions()
		rec := obs.New()
		opts.Obs = rec
		_, err = core.RunPassingOver(p, core.WholeProgram(), opts, func(f *ir.Func, pure opt.Purity) {
			skips++
			c := f.Clone(f.QName)
			before := c.String()
			var w opt.Work
			if !opt.Optimize(c, pure, &w) || w.Rounds != 1 || c.String() != before {
				t.Errorf("%s: skipped %s, but Optimize takes %d rounds on it:\nbefore:\n%s\nafter:\n%s",
					pr.name, f.QName, w.Rounds, before, c)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		reoptSkipped += counterValue(rec, "hlo.reopt.skipped")
	}
	t.Logf("%d programs: %d skips, %d of them in reoptimize", len(progs), skips, reoptSkipped)
	if reoptSkipped == 0 || skips == reoptSkipped {
		t.Errorf("a skip rule never fired: %d skips, %d in reoptimize", skips, reoptSkipped)
	}
}
