package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
)

// hlo carries the state of one HLO invocation.
type hlo struct {
	ctx   context.Context
	prog  *ir.Program
	scope Scope
	opts  Options
	stats *Stats
	// cost is the compile-cost model value the passes read; it advances
	// only at the sync points of the budget driver (once per pass
	// iteration and after unreachable-routine deletion), exactly where
	// the driver used to recompute it with a full Σ size² rewalk.
	cost int64
	// liveCost is the incrementally maintained current value: every
	// accepted inline, clone, outline, re-optimization and routine
	// deletion folds its size delta in, so a sync is one assignment
	// instead of a whole-scope rewalk.
	liveCost   int64
	hasProfile bool
	pure       map[string]bool
	cloneDB    map[string]string // spec key -> clone QName
	cloneSeq   int
	outlineSeq int
	ops        int
	siteSeq    int32
	rec        *obs.Recorder // nil when observability is off
	pass       int           // 1-based pass number inside the pass loop; 0 outside
	// bookkeepNS / verifyNS / verifyCount accumulate the cost of
	// observability's own full-scope size+cost walks and of the
	// per-mutation verifier, published as hlo.bookkeeping-ns /
	// hlo.verify-ns / hlo.verify-count. Maintained only when rec != nil,
	// so the disabled path stays free.
	bookkeepNS  int64
	verifyNS    int64
	verifyCount int64
	// verifyErr latches the first VerifyEach failure. Once set, stopped()
	// reports true so no further transformation runs on the broken IR and
	// the offending mutation stays the last one performed.
	verifyErr error
	// skip quarantines functions involved in a rolled-back mutation under
	// resilience.FailSkipFunc (nil under every other policy). Restores
	// happen in place, so pointer identity survives a rollback.
	skip map[*ir.Func]bool
	// dirty holds the functions reoptimize must visit: every function a
	// guarded mutation may have left short of Optimize's fixpoint or
	// created (a created function the mutation already optimized keeps
	// that Optimize's mark), and every function whose last opt.Optimize
	// stopped at its round limit. A mark clears only when
	// optimizeGuarded's Optimize converged and was not rolled back;
	// opt.Optimize reads only the body and the purity facts, which are
	// fixed after the dead-call stage, so re-optimizing a clean function
	// would be a no-op round.
	dirty map[*ir.Func]bool
	// passedOver, when set, sees every function a skip rule leaves
	// alone, with the purity facts it would have been optimized under.
	// Only tests set it, to check that each skip is a no-op.
	passedOver func(*ir.Func, opt.Purity)
	// reoptRuns / reoptSkipped count reoptimize's visits to dirty
	// functions and the clean ones it passed over, published as
	// hlo.reopt.runs / hlo.reopt.skipped.
	reoptRuns, reoptSkipped int64
	// optWork sums every opt.Optimize's work counts, published as
	// hlo.opt.rounds / hlo.opt.cp.visits / hlo.opt.cp.cells /
	// hlo.opt.cse.scans.
	optWork opt.Work
}

// Run applies HLO to the program under the given scope and options and
// returns the transformation statistics. The program must be resolved;
// it is verified on completion in debug builds via ir.Program.Verify by
// callers that care. If Options.VerifyEach detects a broken
// transformation the error is latched into the returned Stats.VerifyErr
// (the run stops at the offending mutation, so the IR reflects it) —
// library callers that want the error directly use RunChecked.
func Run(p *ir.Program, scope Scope, opts Options) *Stats {
	st, err := RunChecked(p, scope, opts)
	if err != nil {
		st.VerifyErr = err
	}
	return st
}

// RunChecked is Run returning the first per-mutation verification
// failure instead of panicking. Without Options.VerifyEach the error is
// always nil.
func RunChecked(p *ir.Program, scope Scope, opts Options) (*Stats, error) {
	return RunCheckedCtx(context.Background(), p, scope, opts)
}

// RunCheckedCtx is RunChecked with cancellation: the pass driver
// consults ctx at every pass boundary, and the clone/inline/outline
// site loops consult it through stopped(), so a long HLO invocation
// unwinds within one transformation of the context dying. On
// cancellation the returned error wraps ctx.Err() (the IR may be
// mid-transformation and must be discarded); a per-mutation
// verification failure still takes precedence, since it describes what
// was wrong before the cancellation stopped the run.
func RunCheckedCtx(ctx context.Context, p *ir.Program, scope Scope, opts Options) (*Stats, error) {
	return run(ctx, p, scope, opts, nil)
}

// run is RunCheckedCtx with the passedOver hook (nil outside tests).
func run(ctx context.Context, p *ir.Program, scope Scope, opts Options, passedOver func(*ir.Func, opt.Purity)) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Passes <= 0 {
		opts.Passes = 1
	}
	h := &hlo{
		ctx:        ctx,
		prog:       p,
		scope:      scope,
		opts:       opts,
		stats:      &Stats{},
		cloneDB:    make(map[string]string),
		rec:        opts.Obs,
		dirty:      make(map[*ir.Func]bool),
		passedOver: passedOver,
	}
	p.Funcs(func(f *ir.Func) bool {
		if f.EntryCount > 0 {
			h.hasProfile = true
			return false
		}
		return true
	})

	// Input stage: classic optimizations to reduce IR size, then
	// interprocedural side-effect analysis and dead-call deletion
	// ("they are eliminated before inlining because HLO's
	// interprocedural analysis determines that they have no side
	// effect"). The first optimizes every function in scope and so sets
	// the first dirty marks. The second re-optimizes only the functions
	// the purity facts can change: those left dirty, and those calling
	// a pure routine. The facts reach only DCE's verdict on a call to a
	// pure routine, so a clean function without one is already at the
	// fixpoint of Optimize under the facts too.
	sp := h.beginPhase("input-opt")
	h.forScope(func(f *ir.Func) { h.optimizeGuarded(f, nil) })
	h.endPhase(sp)
	if opts.DeadCallElim {
		sp := h.beginPhase("dead-calls")
		h.pure = ipa.PureFuncs(ipa.Build(p))
		before := h.countCalls()
		var deadCands []deadCallSite
		if h.rec != nil {
			h.siteSeq = p.AssignSites(h.siteSeq)
			deadCands = h.pureCallSites()
		}
		h.forScope(func(f *ir.Func) {
			if h.dirty[f] || h.callsPure(f) {
				h.optimizeGuarded(f, h.purity)
			} else if h.passedOver != nil {
				h.passedOver(f, h.purity)
			}
		})
		h.stats.DeadCalls = before - h.countCalls()
		if h.rec != nil {
			h.emitDeadCallRemarks(deadCands)
		}
		h.endPhase(sp)
	}

	// Figure 2: determine the budget and its staging. This is the only
	// full cost rewalk; from here on liveCost is maintained by delta.
	h.liveCost = h.computeCost()
	h.syncCost()
	h.stats.CostBefore = h.cost
	h.stats.SizeBefore = h.scopeSize()
	c0 := h.cost
	extra := c0 * int64(opts.Budget) / 100
	budget := c0 + extra

	for pass := 0; pass < opts.Passes && h.cost < budget && !h.stopped(); pass++ {
		h.pass = pass + 1
		stage := c0 + extra*stageFraction(pass, opts.Passes)/100
		if opts.Clone {
			h.siteSeq = p.AssignSites(h.siteSeq)
			sp := h.beginPhase("clone")
			h.clonePass(stage)
			h.endPhase(sp)
			sp = h.beginPhase("clone-opt")
			h.reoptimize()
			h.endPhase(sp)
		}
		if opts.Inline {
			h.siteSeq = p.AssignSites(h.siteSeq)
			sp := h.beginPhase("inline")
			h.inlinePass(stage)
			h.endPhase(sp)
			sp = h.beginPhase("inline-opt")
			h.reoptimize()
			h.endPhase(sp)
		}
		h.syncCost()
		h.stats.Passes++
	}
	h.pass = 0

	// A dead context unwinds here, before the outline/cleanup phases: the
	// caller discards the (mid-transformation) IR on error anyway. A
	// verification failure keeps the historical path so the stats and the
	// offending IR stay inspectable.
	if h.verifyErr == nil {
		if err := ctx.Err(); err != nil {
			h.stats.Ops = h.ops
			return h.stats, fmt.Errorf("core: canceled after pass %d: %w", h.stats.Passes, err)
		}
	}

	if opts.Outline {
		if opts.OutlineMinSize <= 0 {
			h.opts.OutlineMinSize = 6
		}
		sp := h.beginPhase("outline")
		if h.outlinePass() > 0 {
			h.reoptimize()
		}
		h.endPhase(sp)
	}

	sp = h.beginPhase("delete-unreachable")
	h.stats.Deletions = h.deleteUnreachable()
	h.endPhase(sp)
	h.syncCost()
	h.stats.CostAfter = h.cost
	h.stats.SizeAfter = h.scopeSize()
	h.stats.Ops = h.ops
	h.publishCostCounters()
	if h.verifyErr != nil {
		return h.stats, h.verifyErr
	}
	if err := ctx.Err(); err != nil {
		return h.stats, fmt.Errorf("core: canceled after pass %d: %w", h.stats.Passes, err)
	}
	return h.stats, nil
}

// stageFraction apportions the budget across passes in percent:
// the paper's Figure 2 gives the first pass 20% and the last the full
// budget; intermediate passes interpolate.
func stageFraction(pass, total int) int64 {
	if total <= 1 || pass >= total-1 {
		return 100
	}
	return 20 + int64(80*pass/(total-1))
}

func (h *hlo) purity(callee string) bool { return h.pure[callee] }

// callsPure reports whether f makes a direct call to a routine the
// purity facts mark pure.
func (h *hlo) callsPure(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.Call && h.pure[in.Callee] {
				return true
			}
		}
	}
	return false
}

func (h *hlo) stopped() bool {
	if h.verifyErr != nil {
		return true
	}
	if h.ctx.Err() != nil {
		return true
	}
	return h.opts.StopAfter > 0 && h.ops >= h.opts.StopAfter
}

// checkMutation verifies every function touched by one accepted
// transformation under Options.VerifyEach (no-op otherwise). The first
// failure latches into verifyErr, which also trips stopped() so the
// broken IR is not transformed further.
func (h *hlo) checkMutation(what string, funcs ...*ir.Func) {
	if !h.opts.VerifyEach || h.verifyErr != nil {
		return
	}
	var t0 time.Time
	if h.rec != nil {
		t0 = time.Now()
		defer func() { h.verifyNS += time.Since(t0).Nanoseconds() }()
	}
	for _, f := range funcs {
		if f == nil {
			continue
		}
		if h.rec != nil {
			h.verifyCount++
		}
		if err := h.prog.VerifyFuncStrict(f); err != nil {
			h.verifyErr = fmt.Errorf("core: after %s: %w", what, err)
			return
		}
	}
}

// publishCostCounters exposes HLO's own overhead through the counter
// registry: hlo.bookkeeping-ns is the time the flight recorder's phase
// spans spent on full-scope Σ size² and size walks, hlo.verify-ns /
// hlo.verify-count time the per-mutation verifier (VerifyEach), and
// hlo.reopt.runs / hlo.reopt.skipped count the dirty functions
// reoptimize visited and the clean ones it skipped, and hlo.opt.rounds /
// hlo.opt.cp.visits / hlo.opt.cp.cells count the scalar pipeline's
// rounds, ConstProp's block visits and the register cells it met on CFG
// edges, and hlo.opt.cse.scans the facts LocalCSE's kills examined. The
// split answers "is the inliner slow, or is it our bookkeeping?".
func (h *hlo) publishCostCounters() {
	if h.rec == nil {
		return
	}
	h.rec.Count("hlo.bookkeeping-ns", h.bookkeepNS)
	h.rec.Count("hlo.reopt.runs", h.reoptRuns)
	h.rec.Count("hlo.reopt.skipped", h.reoptSkipped)
	h.rec.Count("hlo.opt.rounds", h.optWork.Rounds)
	h.rec.Count("hlo.opt.cp.visits", h.optWork.CPVisits)
	h.rec.Count("hlo.opt.cp.cells", h.optWork.CPCells)
	h.rec.Count("hlo.opt.cse.scans", h.optWork.CSEScans)
	if h.opts.VerifyEach {
		h.rec.Count("hlo.verify-ns", h.verifyNS)
		h.rec.Count("hlo.verify-count", h.verifyCount)
	}
}

func (h *hlo) countOp() { h.ops++ }

// costOf is the compile-time cost model of one routine: quadratic in its
// size, like the back end's dominant algorithms (or linear under the
// ablation flag).
func (h *hlo) costOf(size int64) int64 {
	if h.opts.LinearCost {
		return size
	}
	return size * size
}

func (h *hlo) computeCost() int64 {
	var c int64
	h.forScope(func(f *ir.Func) { c += h.costOf(int64(f.Size())) })
	return c
}

// syncCost publishes the incrementally maintained cost to the
// pass-visible field. Called exactly where the driver used to run a full
// computeCost rewalk, so the passes observe the same values as before.
func (h *hlo) syncCost() { h.cost = h.liveCost }

// recost folds f's size change into liveCost, given its size before the
// mutation. The caller must ensure f is in scope.
func (h *hlo) recost(f *ir.Func, oldSize int64) {
	h.liveCost += h.costOf(int64(f.Size())) - h.costOf(oldSize)
}

func (h *hlo) scopeSize() int {
	n := 0
	h.forScope(func(f *ir.Func) { n += f.Size() })
	return n
}

func (h *hlo) countCalls() int {
	n := 0
	h.forScope(func(f *ir.Func) {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.Call || b.Instrs[i].Op == ir.ICall {
					n++
				}
			}
		}
	})
	return n
}

func (h *hlo) forScope(fn func(*ir.Func)) {
	h.prog.Funcs(func(f *ir.Func) bool {
		if h.scope.Contains(f) {
			fn(f)
		}
		return true
	})
}

// optimizeFunc runs the scalar pipeline with the current purity facts,
// under the pass firewall when a non-abort FailPolicy is set.
func (h *hlo) optimizeFunc(f *ir.Func) {
	h.optimizeGuarded(f, h.purityOrNil())
}

func (h *hlo) purityOrNil() opt.Purity {
	if h.pure == nil {
		return nil
	}
	return h.purity
}

// reoptimize re-runs the scalar pipeline over the dirty functions in
// scope after a transformation pass (Figures 3 and 4: "optimize
// clones/inlines and recalibrate"). A clean function already sits at
// Optimize's fixpoint, so skipping it changes nothing. After a latched
// verification failure it does nothing: the rejected mutation stays the
// last change, and the broken IR reaches no pass.
func (h *hlo) reoptimize() {
	if h.verifyErr != nil {
		return
	}
	h.forScope(func(f *ir.Func) {
		if !h.dirty[f] {
			h.reoptSkipped++
			if h.passedOver != nil {
				h.passedOver(f, h.purityOrNil())
			}
			return
		}
		h.reoptRuns++
		old := int64(f.Size())
		h.optimizeFunc(f)
		h.recost(f, old)
	})
}

// deleteUnreachable removes routines that can no longer be called:
// file-scope routines and clones whose every call was inlined or cloned
// away, and — under whole-program scope — any routine unreachable from
// main. Address-taken routines survive (indirect calls may reach them).
func (h *hlo) deleteUnreachable() int {
	// Roots: main, every function we are not allowed to delete, and
	// address-taken functions referenced from anywhere.
	reach := make(map[*ir.Func]bool)
	var stack []*ir.Func
	push := func(f *ir.Func) {
		if f != nil && !reach[f] {
			reach[f] = true
			stack = append(stack, f)
		}
	}
	h.prog.Funcs(func(f *ir.Func) bool {
		if !deletable(f, h.scope) {
			push(f)
		}
		return true
	})
	if main, err := h.prog.MainFunc(); err == nil {
		push(main)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.Call && !ir.IsRuntime(in.Callee) {
					push(h.prog.Func(in.Callee))
				}
				in.Operands(func(o *ir.Operand) {
					if o.Kind == ir.KindFuncAddr && !ir.IsRuntime(o.Sym) {
						push(h.prog.Func(o.Sym))
					}
				})
			}
		}
	}
	var dead []*ir.Func
	h.prog.Funcs(func(f *ir.Func) bool {
		if !reach[f] {
			dead = append(dead, f)
		}
		return true
	})
	for _, f := range dead {
		if h.scope.Contains(f) {
			h.liveCost -= h.costOf(int64(f.Size()))
		}
		h.prog.RemoveFunc(f)
	}
	return len(dead)
}
