// Package core is HLO: the high-level, intermediate-code-level optimizer
// of the paper "Aggressive Inlining" (Ayers, Gottlieb & Schooler,
// PLDI 1997). It is an IR-to-IR transformer that buffers a whole module
// (the traditional path) or every module of the program (the link-time
// "isom" path) and then alternates cloning and inlining passes under a
// global compile-time budget, exactly following the structure of the
// paper's Figures 2 (driver), 3 (cloning pass) and 4 (inlining pass).
//
// The central ideas reproduced here:
//
//   - Budgeted growth. The cost of a routine is modelled as size², the
//     shape of the quadratic algorithms in HP's back end; the budget
//     bounds the total Σ size² growth, not the growth of any one routine.
//   - Staging. The budget is apportioned across multiple passes so early
//     passes cannot exhaust it; later passes see the consequences of
//     earlier inlines and clones (sharpened constants, new direct calls).
//   - Cloning is goal-directed: clone specs are built by intersecting
//     what a caller supplies (S(E)) with what the callee could exploit
//     (P(R)), grown greedily into clone groups, ranked by benefit, and
//     recorded in a clone database that later passes reuse.
//   - Inlining is liberal: any legal site may be inlined, ranked by a
//     figure of merit dominated by profile frequency, with a penalty for
//     sites colder than their caller's entry, under a schedule that
//     performs inlines bottom-up and accounts for cascaded cost.
//   - Very few restrictions: only gross arity mismatches, varargs,
//     relaxed-arithmetic disagreements, alloca users, direct
//     self-recursion and user pragmas block a site.
package core

import (
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Scope describes which functions HLO may transform and how far it may
// see — one module on the traditional path, the whole program on the
// link-time path (the paper's cross-module "c" configurations).
type Scope struct {
	// Modules limits transformation to the named modules; nil means all.
	Modules map[string]bool
	// Whole marks whole-program compilation: unreferenced non-static
	// routines may be deleted and cross-module sites are inlinable.
	Whole bool
}

// WholeProgram returns the link-time scope.
func WholeProgram() Scope { return Scope{Whole: true} }

// SingleModule returns the traditional one-module-at-a-time scope.
func SingleModule(name string) Scope {
	return Scope{Modules: map[string]bool{name: true}}
}

// Contains reports whether f may be transformed (inlined into, cloned,
// rewritten) under the scope.
func (s Scope) Contains(f *ir.Func) bool {
	if f == nil {
		return false
	}
	if s.Modules == nil {
		return true
	}
	return s.Modules[f.Module]
}

// Options tunes HLO. The zero value is NOT useful; use DefaultOptions.
type Options struct {
	// Budget is the paper's compile-time growth budget in percent:
	// 100 allows Σ size² to double. Figure 8 sweeps 25..1000.
	Budget int
	// Passes caps the clone/inline pass alternation (Figure 2's "limit").
	Passes int
	// Inline and Clone enable the two transformations independently
	// (Figure 6 compares neither/inline/clone/both).
	Inline bool
	Clone  bool
	// StopAfter artificially stops HLO after this many inline operations
	// and clone call-site replacements (Figure 8's incremental-benefit
	// experiment); 0 means unlimited.
	StopAfter int
	// ColdPenalty applies the paper's penalty to call sites executed
	// less often than their caller's entry block.
	ColdPenalty bool
	// ReuseCloneDB lets later passes reuse clones created earlier
	// (ablation knob; the paper always reuses).
	ReuseCloneDB bool
	// LinearCost switches the compile-cost model from size² to size
	// (ablation of the paper's quadratic model).
	LinearCost bool
	// DeadCallElim runs interprocedural side-effect analysis first and
	// deletes dead pure calls (the 072.sc curses deletion).
	DeadCallElim bool
	// Outline enables the paper's future-work complement: after the
	// inline/clone passes, profile-cold straight-line code is extracted
	// out of hot routines into fresh file-scope routines. Requires
	// profile data; a no-op without it.
	Outline bool
	// OutlineMinSize is the minimum body size (instructions) worth a
	// call; 0 means the default of 6.
	OutlineMinSize int
	// Obs receives optimization remarks (one per inline/clone/outline/
	// dead-call decision) and per-pass phase spans. A nil recorder is a
	// no-op: the decision hot paths pay nothing when disabled.
	Obs *obs.Recorder
	// VerifyEach runs ir.Program.VerifyFuncStrict over the functions
	// touched by every accepted inline, clone call-site replacement, and
	// outline, latching the first failure (reported by RunChecked; Run
	// panics on it). Strict verification assumes honest extern
	// declarations — front-end output and fuzzer-generated programs
	// qualify; hand-written IR with lying externs does not. Intended for
	// tests and the differential fuzzer, not production compiles.
	VerifyEach bool
	// InjectBug deliberately miscompiles: the named defect is introduced
	// into a transformation so the fuzzer's oracles and minimizer can be
	// mutation-tested against a known-bad compiler. Empty means off.
	// Never set outside tests.
	InjectBug string
	// FailPolicy selects the pass firewall's behaviour when a mutation
	// panics or (under VerifyEach) fails per-mutation verification. The
	// default, resilience.FailAbort, takes no snapshots and keeps
	// decisions bit-identical to builds without the firewall: a panic
	// propagates and a verification failure latches and stops the run.
	// FailRollback restores the touched functions and keeps compiling;
	// FailSkipFunc additionally quarantines them from further
	// transformation.
	FailPolicy resilience.FailPolicy
}

// BugInlineSwapArgs is an InjectBug value: performInline binds the first
// two actuals to the wrong formals (a structurally valid miscompile that
// only a behavioural oracle can see).
const BugInlineSwapArgs = "inline-swap-args"

// BugInlineBadReg is an InjectBug value: performInline leaves a write to
// an out-of-range register in the continuation block (a structural
// miscompile that VerifyEach catches immediately; exercises the
// verify-rollback path of the pass firewall).
const BugInlineBadReg = "inline-bad-reg"

// DefaultOptions mirrors the paper's defaults: budget 100, four passes,
// both transformations on, profile-style heuristics on.
func DefaultOptions() Options {
	return Options{
		Budget:       100,
		Passes:       4,
		Inline:       true,
		Clone:        true,
		ColdPenalty:  true,
		ReuseCloneDB: true,
		DeadCallElim: true,
	}
}

// Stats reports what HLO did — the columns of the paper's Table 1.
type Stats struct {
	Inlines    int // inline operations performed
	Clones     int // clones created
	CloneRepls int // call sites redirected to clones
	Deletions  int // routines deleted (unreachable after transformation)
	Outlines   int // cold routines extracted by the outliner
	Promotions int // statics promoted to global scope by cross-module motion
	DeadCalls  int // dead pure calls removed by interprocedural analysis
	Passes     int // clone/inline pass pairs executed

	// CostBefore/CostAfter are the compile-time cost model values
	// (Σ size², or Σ size with LinearCost) before and after; their ratio
	// is the "compile time" column of Table 1.
	CostBefore int64
	CostAfter  int64

	// SizeBefore/SizeAfter are total IR instruction counts (code growth).
	SizeBefore int
	SizeAfter  int

	// Ops records the order of operations for Figure 8 replays.
	Ops int

	// VerifyErr records the first per-mutation verification failure for
	// callers of Run, which cannot return an error (RunChecked callers
	// get it directly and leave this nil). Excluded from JSON so service
	// responses and Table 1 artifacts are byte-identical with or without
	// the field.
	VerifyErr error `json:"-"`
}

// Add accumulates o into s: the per-module aggregation of the
// traditional compile path (one HLO invocation per module) and of the
// experiment harness's totals.
func (s *Stats) Add(o *Stats) {
	s.Inlines += o.Inlines
	s.Clones += o.Clones
	s.CloneRepls += o.CloneRepls
	s.Deletions += o.Deletions
	s.Outlines += o.Outlines
	s.Promotions += o.Promotions
	s.DeadCalls += o.DeadCalls
	s.Passes += o.Passes
	s.CostBefore += o.CostBefore
	s.CostAfter += o.CostAfter
	s.SizeBefore += o.SizeBefore
	s.SizeAfter += o.SizeAfter
	s.Ops += o.Ops
	if s.VerifyErr == nil {
		s.VerifyErr = o.VerifyErr
	}
}
