package core

import (
	"repro/internal/ipa"
	"repro/internal/ir"
)

// Reason explains the outcome of a legality or selection decision,
// mirroring the paper's four restriction classes plus the structural
// ones, and — beyond the screen itself — the selection-stage outcomes
// (budget exhaustion, non-positive benefit, the StopAfter limit) so
// every optimization remark carries a machine-readable reason code.
type Reason uint8

// Rejection reasons. The legality screens (inlineLegal, cloneLegal,
// outlineLegal) return the first group; the selection loops use the
// second group when an otherwise-legal decision is declined.
const (
	OK               Reason = iota
	NotDirect               // indirect or external: no known callee body
	OutOfScope              // callee not visible under the compilation scope
	IllegalArity            // gross mismatch between actuals and formals
	IllegalVarargs          // callee accepts variable arguments
	TechnicalRelaxed        // relaxed-arithmetic IR flags disagree
	PragmaticAlloca         // callee allocates stack dynamically
	PragmaticSelf           // direct self-recursive site
	UserNoInline            // user pragma
	NotCloneworthy          // no parameters / entry point

	// Selection-stage outcomes.
	RejNoBenefit  // figure of merit not positive
	RejBudget     // stage budget would be exceeded
	RejStopped    // the StopAfter operation limit was reached
	RejRetargeted // site vanished or was retargeted since ranking
	NoBinding     // clone spec binds no parameter (S(E) ∩ P(R) empty)

	// Outliner screen outcomes.
	OutlineEntry // entry block is never outlined (parameter home)
	NotCold      // block not colder than the entry by the threshold
	TooSmall     // straight-line body below OutlineMinSize
	UsesFrame    // body touches the frame (FrameAddr/Alloca)
	TooManyFlows // too many registers flow in, or more than one out

	// Dead-call analysis outcomes.
	LiveResult // pure call survives: its result is still used

	// Pass-firewall outcomes (Options.FailPolicy rollback/skip-func).
	RolledBackPanic  // mutation panicked; snapshots restored
	RolledBackVerify // per-mutation verification failed; snapshots restored
	SkippedFunc      // function quarantined by an earlier rollback (skip-func)
)

var reasonNames = [...]string{
	OK:               "ok",
	NotDirect:        "not-direct",
	OutOfScope:       "out-of-scope",
	IllegalArity:     "illegal-arity",
	IllegalVarargs:   "illegal-varargs",
	TechnicalRelaxed: "technical-relaxed",
	PragmaticAlloca:  "pragmatic-alloca",
	PragmaticSelf:    "pragmatic-self",
	UserNoInline:     "user-noinline",
	NotCloneworthy:   "not-cloneworthy",
	RejNoBenefit:     "no-benefit",
	RejBudget:        "budget",
	RejStopped:       "stop-limit",
	RejRetargeted:    "retargeted",
	NoBinding:        "no-binding",
	OutlineEntry:     "entry-block",
	NotCold:          "not-cold",
	TooSmall:         "too-small",
	UsesFrame:        "uses-frame",
	TooManyFlows:     "too-many-flows",
	LiveResult:       "live-result",
	RolledBackPanic:  "rolled-back-panic",
	RolledBackVerify: "rolled-back-verify",
	SkippedFunc:      "skipped-func",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) && reasonNames[r] != "" {
		return reasonNames[r]
	}
	return "?"
}

// inlineLegal screens one call site for inlining (the paper's legal,
// technical, pragmatic and user-imposed restriction classes).
func inlineLegal(e *ipa.Edge, scope Scope) Reason {
	if e.Callee == nil {
		return NotDirect
	}
	callee := e.Callee
	// The caller must be transformable and the callee's body visible.
	if !scope.Contains(e.Caller) || !scope.Contains(callee) {
		return OutOfScope
	}
	if callee.Varargs {
		return IllegalVarargs
	}
	if len(e.Instr().Args) != callee.NumParams {
		return IllegalArity
	}
	if callee.Relaxed != e.Caller.Relaxed {
		return TechnicalRelaxed
	}
	if callee.UsesAlloca {
		return PragmaticAlloca
	}
	if callee == e.Caller {
		return PragmaticSelf
	}
	if callee.NoInline {
		return UserNoInline
	}
	return OK
}

// outlineLegal screens one block of a profiled routine for outlining:
// the block must not be the entry, must be cold relative to the entry,
// must have a straight-line body worth a call, and must not touch the
// frame (FrameAddr/Alloca cannot move to another routine's frame). The
// data-flow shape (TooManyFlows) needs liveness and is checked
// separately by outlineFlows.
func outlineLegal(f *ir.Func, b *ir.Block, minSize int) Reason {
	if b.Index == 0 {
		return OutlineEntry
	}
	if b.Count*outlineColdFraction >= f.EntryCount {
		return NotCold
	}
	if len(b.Instrs)-1 < minSize {
		return TooSmall
	}
	for i := 0; i < len(b.Instrs)-1; i++ {
		switch b.Instrs[i].Op {
		case ir.FrameAddr, ir.Alloca:
			return UsesFrame
		}
	}
	return OK
}

// cloneLegal screens a call site for cloning. Cloning is less
// restricted than inlining (no body merge happens): alloca users and
// relaxed-arithmetic mismatches are fine, and recursive sites are
// explicitly supported (the clone database makes multi-pass recursive
// cloning converge).
func cloneLegal(e *ipa.Edge, scope Scope) Reason {
	if e.Callee == nil {
		return NotDirect
	}
	callee := e.Callee
	if !scope.Contains(e.Caller) || !scope.Contains(callee) {
		return OutOfScope
	}
	if callee.Varargs {
		return IllegalVarargs
	}
	if len(e.Instr().Args) != callee.NumParams {
		return IllegalArity
	}
	if callee.NoInline {
		return UserNoInline
	}
	if callee.NumParams == 0 || callee.Name == "main" && !callee.Static {
		return NotCloneworthy
	}
	return OK
}
