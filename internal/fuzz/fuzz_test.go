package fuzz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/randprog"
)

// TestFuzzSmoke runs a short differential campaign over the shipped
// generator configuration; any divergence is a released bug.
func TestFuzzSmoke(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 8
	}
	for _, f := range Run(1, n, Config{}) {
		t.Errorf("%v\nsources:\n%s", f, strings.Join(f.Sources, "// ===module===\n"))
	}
}

// TestInjectedBugCaughtAndMinimized mutation-tests the oracles with
// each of core's injectable bugs: core.BugInlineSwapArgs (performInline
// swaps the first two actuals — structurally valid IR, so only
// behavioural oracles can notice) and core.BugInlineBadReg (a write to
// a register past the caller's register file, which VerifyEach
// rejects). For each, the fuzzer must find divergences quickly, and the
// greedy minimizer must shrink each of the first three reproducers to a
// program that still fails under the bug but passes under the clean
// compiler, the first to a handful of lines. Minimizing recompiles many
// variants of each program, so it also checks that no variant crashes
// the compiler.
func TestInjectedBugCaughtAndMinimized(t *testing.T) {
	for _, bug := range []string{core.BugInlineSwapArgs, core.BugInlineBadReg} {
		t.Run(bug, func(t *testing.T) {
			cfg := Config{InjectBug: bug}
			var fails []*Failure
			for seed := int64(1); seed <= 64 && len(fails) < 3; seed++ {
				if fail := CheckSeed(seed, cfg); fail != nil {
					fails = append(fails, fail)
				}
			}
			if len(fails) == 0 {
				t.Fatalf("injected bug %q not caught in 64 seeds", bug)
			}
			for i, fail := range fails {
				t.Logf("caught: %v", fail)
				min := Minimize(fail.Sources, func(cand []string) bool {
					r := CheckSources(cand, fail.Inputs, fail.Train, cfg)
					return r != nil && r.Kind == fail.Kind && r.Cell == fail.Cell
				})
				if n := LineCount(min); i == 0 && n > 25 {
					t.Errorf("seed %d: minimized reproducer is %d lines, want <= 25:\n%s",
						fail.Seed, n, strings.Join(min, "// ===module===\n"))
				}
				if r := CheckSources(min, fail.Inputs, fail.Train, cfg); r == nil {
					t.Errorf("seed %d: minimized reproducer no longer fails under the injected bug", fail.Seed)
				}
				if r := CheckSources(min, fail.Inputs, fail.Train, Config{}); r != nil {
					t.Errorf("seed %d: minimized reproducer fails even without the injected bug: %v", fail.Seed, r)
				}
			}
		})
	}
}

// TestSizeMemoNeverStale drives HLO over random programs with
// per-mutation strict verification on: ir.VerifyFuncStrict cross-checks
// the memoized Func.Size against a fresh recount after every accepted
// inline, clone and outline, so a mutation path that forgot
// InvalidateSize fails the compile. A final sweep re-checks the
// fixpoint state.
func TestSizeMemoNeverStale(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		sources := randprog.Generate(seed, randprog.FuzzConfig())
		p, err := driver.Frontend(sources)
		if err != nil {
			t.Fatalf("seed %d: frontend: %v", seed, err)
		}
		opts := core.DefaultOptions()
		opts.VerifyEach = true
		opts.Outline = seed%2 == 0
		if opts.Outline {
			res, err := interp.Run(p, interp.Options{
				Inputs: TrainFor(seed), Profile: true, MemSize: fuzzMemWords})
			if err != nil {
				t.Fatalf("seed %d: training run: %v", seed, err)
			}
			res.Profile.Attach(p)
		}
		if _, err := core.RunChecked(p, core.WholeProgram(), opts); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		p.Funcs(func(f *ir.Func) bool {
			want := sizeRecount(f)
			if got := f.Size(); got != want {
				t.Errorf("seed %d: %s: memoized Size() = %d, recount = %d", seed, f.QName, got, want)
			}
			return true
		})
	}
}

// TestCorpusReplay is the regression suite over the stored crash
// corpus: every entry is a once-failing program whose bug has since
// been fixed, so every replay must pass. An empty corpus passes
// trivially.
func TestCorpusReplay(t *testing.T) {
	files, err := CorpusFiles("../../testdata/fuzz-corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		f, err := ReplayFile(path, Config{})
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if f != nil {
			t.Errorf("%s: regressed: %v", path, f)
		}
	}
}

// TestCorpusRoundTrip checks that corpus encoding preserves everything
// replay needs.
func TestCorpusRoundTrip(t *testing.T) {
	f := &Failure{
		Seed: 7, Cell: "cross/b100", Kind: "output", Detail: "x",
		Sources: []string{
			"module main;\nfunc main() int { print(1); }\n",
			"module mod1;\nfunc f() int { return 2; }\n",
		},
		Inputs: []int64{1, 2, 3},
		Train:  []int64{4, 5, 6},
	}
	sources, inputs, train := DecodeCorpus(EncodeCorpus(f))
	if len(sources) != 2 ||
		!strings.Contains(sources[0], "module main;") ||
		!strings.Contains(sources[1], "module mod1;") {
		t.Errorf("sources did not round-trip: %q", sources)
	}
	if !equalOutput(inputs, f.Inputs) || !equalOutput(train, f.Train) {
		t.Errorf("inputs %v train %v did not round-trip", inputs, train)
	}
}

// FuzzDifferential is the native fuzzing entry point: go test
// -fuzz=FuzzDifferential explores seeds beyond the deterministic smoke
// range.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{1, 31, 57, 1 << 20} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if fail := CheckSeed(seed, Config{}); fail != nil {
			t.Errorf("%v", fail)
		}
	})
}
