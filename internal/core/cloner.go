package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/obs"
)

// cloneSpec describes a specialization: for each formal parameter of the
// clonee, either the link-time constant operand every group member
// passes, or unknown. It is the intersection of S(E) with P(R).
type cloneSpec struct {
	callee *ir.Func
	bound  []ir.Operand // KindInvalid = unbound
}

// nBound counts bound parameters.
func (s *cloneSpec) nBound() int {
	n := 0
	for _, b := range s.bound {
		if b.Kind != ir.KindInvalid {
			n++
		}
	}
	return n
}

// key is the clone-database key: clonee plus the exact specialization.
func (s *cloneSpec) key() string {
	var b strings.Builder
	b.WriteString(s.callee.QName)
	for _, op := range s.bound {
		b.WriteByte('|')
		if op.Kind == ir.KindInvalid {
			b.WriteByte('?')
		} else {
			b.WriteString(op.String())
		}
	}
	return b.String()
}

// cloneGroup is a set of call sites that can all safely call the clone
// described by spec (Figure 3's clone groups).
type cloneGroup struct {
	spec     *cloneSpec
	key      string  // spec.key(), the clone-database key
	sites    []int32 // Site IDs of the member edges
	callers  []*ir.Func
	benefits []int64 // per-site benefit, parallel to sites
	benefit  int64
	// coversAll marks groups containing every direct call to the clonee,
	// which anticipates deletion of the clonee (zero cost in the paper).
	coversAll bool
	// cost and headroom record the budget state at selection time for
	// optimization remarks.
	cost, headroom int64
}

// clonePass implements Figure 3: form clone groups, rank them by
// benefit, and create clones greedily under the stage budget with the
// covers-all and database-reuse zero-cost discounts, retargeting the
// member call sites.
func (h *hlo) clonePass(stageBudget int64) {
	groups := h.cloneGroups(ipa.Build(h.prog))
	// Rank by benefit; ties on the specialization key.
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.benefit != b.benefit {
			return a.benefit > b.benefit
		}
		return a.key < b.key
	})
	c := h.cost
	for gi, grp := range groups {
		if grp.benefit <= 0 {
			h.remarkGroup(grp, RejNoBenefit)
			continue
		}
		if h.stopped() {
			for _, rest := range groups[gi:] {
				h.remarkGroup(rest, RejStopped)
			}
			return
		}
		x := h.costOf(int64(grp.spec.callee.Size()))
		if grp.coversAll {
			// The clonee will die: the paper treats such groups as free.
			x = 0
		}
		if h.opts.ReuseCloneDB {
			if _, exists := h.cloneDB[grp.key]; exists {
				// "If a given clone exists in the database then it is
				// simply reused": only call sites change, no new code.
				x = 0
			}
		}
		grp.cost = x
		grp.headroom = stageBudget - c
		if c+x > stageBudget {
			h.remarkGroup(grp, RejBudget)
			continue
		}
		c += x
		h.applyCloneGroup(grp)
	}
}

// cloneGroups builds parameter-usage and calling-context descriptors
// and forms clone groups greedily in edge order, each site claimed by
// at most one group, remarking illegal sites and empty specs.
func (h *hlo) cloneGroups(g *ipa.Graph) []*cloneGroup {
	usage := make(map[*ir.Func]*ipa.ParamUsage)
	usageOf := func(f *ir.Func) *ipa.ParamUsage {
		u, ok := usage[f]
		if !ok {
			u = ipa.ParamUsageOf(f)
			usage[f] = u
		}
		return u
	}

	claimed := make(map[int32]bool) // sites already in a group this pass
	var groups []*cloneGroup
	for _, e := range g.Edges {
		if r := cloneLegal(e, h.scope); r != OK {
			h.remarkEdge(RemarkClone, e, r)
			continue
		}
		if h.skippedFunc(e.Caller) || h.skippedFunc(e.Callee) {
			h.remarkEdge(RemarkClone, e, SkippedFunc)
			continue
		}
		site := e.Instr().Site
		if claimed[site] {
			continue
		}
		callee := e.Callee
		u := usageOf(callee)
		ctx := ipa.ContextOf(e)
		spec := &cloneSpec{callee: callee, bound: make([]ir.Operand, callee.NumParams)}
		for i := 0; i < callee.NumParams; i++ {
			if ctx.Known(i) && u.Interesting(i) {
				spec.bound[i] = ctx[i]
			}
		}
		if spec.nBound() == 0 {
			h.remarkEdge(RemarkClone, e, NoBinding)
			continue
		}
		// Greedily grow the group over the clonee's other legal sites.
		grp := &cloneGroup{spec: spec, key: spec.key()}
		specCtx := ipa.Context(spec.bound)
		total := len(g.CallersOf[callee])
		for _, e2 := range g.CallersOf[callee] {
			if cloneLegal(e2, h.scope) != OK {
				continue
			}
			if h.skippedFunc(e2.Caller) {
				continue
			}
			s2 := e2.Instr().Site
			if claimed[s2] {
				continue
			}
			if !ipa.ContextOf(e2).Matches(specCtx) {
				continue
			}
			b2 := h.cloneSiteBenefit(e2, spec, u)
			grp.sites = append(grp.sites, s2)
			grp.callers = append(grp.callers, e2.Caller)
			grp.benefits = append(grp.benefits, b2)
			grp.benefit += b2
		}
		if len(grp.sites) == 0 {
			continue
		}
		grp.coversAll = len(grp.sites) == total && deletable(callee, h.scope) && !addressTaken(h.prog, callee)
		for _, s := range grp.sites {
			claimed[s] = true
		}
		groups = append(groups, grp)
	}
	return groups
}

// remarkGroup records one rejection remark per member site of a group
// declined as a whole by the selection loop.
func (h *hlo) remarkGroup(grp *cloneGroup, reason Reason) {
	if h.rec == nil {
		return
	}
	for i := range grp.sites {
		h.remarkCloneSite(grp, i, false, reason, "")
	}
}

// cloneSiteBenefit estimates the run-time value of redirecting one site
// to the clone: the site's call volume times the callee's use weights of
// the parameters the spec binds.
func (h *hlo) cloneSiteBenefit(e *ipa.Edge, spec *cloneSpec, u *ipa.ParamUsage) int64 {
	var freq int64
	if h.hasProfile {
		freq = e.Count()
	} else {
		freq = ipa.BlockWeight(e.Caller, e.Block) / 16
		if freq == 0 {
			freq = 1
		}
	}
	var value int64
	for i, b := range spec.bound {
		if b.Kind != ir.KindInvalid && i < len(u.Weights) {
			value += u.Weights[i]
		}
	}
	return freq * value
}

// applyCloneGroup creates (or reuses) the clone and retargets every
// member site.
func (h *hlo) applyCloneGroup(grp *cloneGroup) {
	spec := grp.spec
	clonee := spec.callee
	key := grp.key
	cloneName, reused := "", false
	if h.opts.ReuseCloneDB {
		cloneName, reused = h.cloneDB[key]
	}
	if !reused {
		var clone *ir.Func
		outcome := h.guardMutation(
			obs.Remark{Kind: RemarkClone, Caller: grp.callers[0].QName, Callee: clonee.QName,
				Site: grp.sites[0], Benefit: grp.benefit},
			nil, nil,
			func() ([]*ir.Func, string, error) {
				ptClone.Inject()
				clone = h.makeClone(spec)
				return []*ir.Func{clone}, "clone " + clone.QName, nil
			})
		if outcome != fwOK {
			// Clone creation rolled back: the group's sites keep calling
			// the clonee, which is still intact.
			return
		}
		cloneName = clone.QName
		h.cloneDB[key] = cloneName
		h.stats.Clones++
	}
	for i, site := range grp.sites {
		if h.stopped() {
			h.remarkCloneSite(grp, i, false, RejStopped, cloneName)
			return
		}
		caller := grp.callers[i]
		if h.skippedFunc(caller) {
			h.remarkCloneSite(grp, i, false, SkippedFunc, cloneName)
			continue
		}
		blk, idx, ok := ir.FindSite(caller, site)
		if !ok {
			h.remarkCloneSite(grp, i, false, RejRetargeted, cloneName)
			continue
		}
		in := &blk.Instrs[idx]
		if in.Op != ir.Call || in.Callee != clonee.QName {
			// Retargeted or transformed since the graph was built.
			h.remarkCloneSite(grp, i, false, RejRetargeted, cloneName)
			continue
		}
		// Edit the bound actuals out of the argument list and point the
		// site at the clone. The retarget leaves caller's convergence
		// mark as it was: no pass reads a call's callee except DCE's
		// purity test, and a clone is never pure (the purity facts
		// predate every clone), so a clean caller's call stays; and the
		// dropped actuals are constants and addresses (ipa.ContextOf),
		// which no pass reads as registers.
		var args []ir.Operand
		for ai, a := range in.Args {
			if ai >= len(spec.bound) || spec.bound[ai].Kind == ir.KindInvalid {
				args = append(args, a)
			}
		}
		outcome := h.guardMutation(
			obs.Remark{Kind: RemarkClone, Caller: caller.QName, Callee: clonee.QName,
				Site: site, Benefit: grp.benefits[i]},
			[]*ir.Func{caller}, nil,
			func() ([]*ir.Func, string, error) {
				in.Callee = cloneName
				in.Args = args
				return nil, "retarget site in " + caller.QName + " to " + cloneName, nil
			})
		if outcome != fwOK {
			continue // rolled back: the site still calls the clonee
		}
		h.stats.CloneRepls++
		h.countOp()
		h.remarkCloneSite(grp, i, true, OK, cloneName)
	}
	if clonee.Module != h.prog.Func(cloneName).Module {
		// Cannot happen (clones live in the clonee's module), but keep
		// the invariant visible.
		panic("core: clone escaped its module")
	}
}

// makeClone duplicates the clonee, binds the spec'd formals to their
// constants in the entry block, compacts the remaining parameters to
// the front of the register file, registers the clone in the program,
// and pre-optimizes it (Figure 3's "optimize clones and recalibrate").
func (h *hlo) makeClone(spec *cloneSpec) *ir.Func {
	clonee := spec.callee
	h.cloneSeq++
	qname := fmt.Sprintf("%s$c%d", clonee.QName, h.cloneSeq)
	clone := clonee.Clone(qname)
	clone.Name = fmt.Sprintf("%s$c%d", clonee.Name, h.cloneSeq)
	clone.Static = true
	clone.Promoted = true // unique name, addressable program-wide
	clone.ClonedFrom = clonee.QName
	ir.ClearSites(clone.Blocks)

	// New signature: unbound params, in order, arriving in registers
	// 0..k-1. The body still reads the original registers, so the entry
	// block first forwards incoming registers upward (descending order
	// avoids clobbering) and then materializes the bound constants.
	newIdx := make([]int, clonee.NumParams)
	k := 0
	var names []string
	for p := 0; p < clonee.NumParams; p++ {
		if spec.bound[p].Kind == ir.KindInvalid {
			newIdx[p] = k
			if p < len(clonee.ParamNames) {
				names = append(names, clonee.ParamNames[p])
			}
			k++
		} else {
			newIdx[p] = -1
		}
	}
	var prologue []ir.Instr
	for p := clonee.NumParams - 1; p >= 0; p-- {
		if newIdx[p] >= 0 && newIdx[p] != p {
			prologue = append(prologue, ir.Instr{
				Op: ir.Mov, Dst: ir.Reg(p), A: ir.RegOp(ir.Reg(newIdx[p])), Pos: clonee.Pos,
			})
		}
	}
	for p := 0; p < clonee.NumParams; p++ {
		if spec.bound[p].Kind != ir.KindInvalid {
			prologue = append(prologue, ir.Instr{
				Op: ir.Mov, Dst: ir.Reg(p), A: spec.bound[p], Pos: clonee.Pos,
			})
		}
	}
	entry := clone.Blocks[0]
	entry.Instrs = append(prologue, entry.Instrs...)
	clone.InvalidateSize()
	clone.NumParams = k
	clone.ParamNames = names

	// Profile: assume the clone inherits the call volume of its group;
	// keep the clonee's shape scaled to the entry count. A precise split
	// is applied lazily: counts only guide heuristics.
	if err := h.prog.AddFunc(clone); err != nil {
		panic(err) // unique by construction
	}
	h.optimizeFunc(clone)
	if h.scope.Contains(clone) {
		h.liveCost += h.costOf(int64(clone.Size()))
	}
	return clone
}

// deletable reports whether f could be removed if all calls disappear.
func deletable(f *ir.Func, scope Scope) bool {
	if !scope.Contains(f) {
		return false
	}
	if f.Name == "main" && !f.Static {
		return false
	}
	// Exported routines may be referenced by modules outside the scope
	// unless we see the whole program.
	return f.Static || scope.Whole
}

// addressTaken reports whether any instruction in the program takes f's
// address (such functions stay reachable through indirect calls).
func addressTaken(p *ir.Program, f *ir.Func) bool {
	taken := false
	p.Funcs(func(g *ir.Func) bool {
		for _, b := range g.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].Operands(func(o *ir.Operand) {
					if o.Kind == ir.KindFuncAddr && o.Sym == f.QName {
						taken = true
					}
				})
			}
		}
		return !taken
	})
	return taken
}
