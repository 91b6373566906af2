package core

import (
	"fmt"
	"sort"

	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/obs"
)

// inlineSite is one legality-screened inline candidate with its figure
// of merit. cost and headroom are filled in by the selection loop and
// flow into the optimization remark: the projected compile-cost delta
// and the stage budget remaining when the decision was made.
type inlineSite struct {
	caller, callee *ir.Func
	site           int32
	benefit        int64
	cost, headroom int64
}

// inlinePass implements Figure 4: screen, rank by benefit, select
// greedily under the stage budget with cascaded-cost accounting, then
// perform the accepted inlines in bottom-up call-graph order.
func (h *hlo) inlinePass(stageBudget int64) {
	g := ipa.Build(h.prog)
	cands := h.inlineCandidates(g)
	// Rank by benefit; deterministic tie-break.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.benefit != b.benefit {
			return a.benefit > b.benefit
		}
		if a.caller.QName != b.caller.QName {
			return a.caller.QName < b.caller.QName
		}
		return a.site < b.site
	})

	// Greedy selection with cascaded cost: est tracks the projected size
	// of each routine as accepted inlines expand it, so the cost of
	// inlining B into A reflects B's own accepted inlines (the paper's
	// schedule insertion).
	est := make(map[*ir.Func]int64)
	sizeOf := func(f *ir.Func) int64 {
		if s, ok := est[f]; ok {
			return s
		}
		s := int64(f.Size())
		est[f] = s
		return s
	}
	var accepted []*inlineSite
	c := h.cost
	for _, cand := range cands {
		if cand.benefit <= 0 {
			h.remarkInline(cand, false, RejNoBenefit)
			continue
		}
		callerSz, calleeSz := sizeOf(cand.caller), sizeOf(cand.callee)
		x := h.costOf(callerSz+calleeSz) - h.costOf(callerSz)
		cand.cost = x
		cand.headroom = stageBudget - c
		if c+x > stageBudget {
			h.remarkInline(cand, false, RejBudget)
			continue
		}
		c += x
		est[cand.caller] = callerSz + calleeSz
		accepted = append(accepted, cand)
	}

	// Perform bottom-up: callers that are themselves callees of later
	// inlines must be expanded first, so schedule by post-order index.
	order := ipa.PostOrder(g)
	sort.SliceStable(accepted, func(i, j int) bool {
		return order[accepted[i].caller] < order[accepted[j].caller]
	})
	for i, cand := range accepted {
		if h.stopped() {
			for _, rest := range accepted[i:] {
				h.remarkInline(rest, false, RejStopped)
			}
			return
		}
		h.inline(cand)
	}
}

// inlineCandidates legality-screens every edge of g in edge order and
// returns the viable sites with their figure of merit, remarking each
// illegal or quarantined site.
func (h *hlo) inlineCandidates(g *ipa.Graph) []*inlineSite {
	var cands []*inlineSite
	for _, e := range g.Edges {
		if r := inlineLegal(e, h.scope); r != OK {
			h.remarkEdge(RemarkInline, e, r)
			continue
		}
		if h.skippedFunc(e.Caller) || h.skippedFunc(e.Callee) {
			h.remarkEdge(RemarkInline, e, SkippedFunc)
			continue
		}
		cands = append(cands, &inlineSite{
			caller:  e.Caller,
			callee:  e.Callee,
			site:    e.Instr().Site,
			benefit: h.inlineBenefit(e),
		})
	}
	return cands
}

// inline performs one accepted inline under the pass firewall: body
// splice, incremental cost and statistics bookkeeping, and the accept
// remark. A declined mutation (the site vanished or was retargeted
// since the graph was built) emits the "retargeted" rejection; a
// rolled-back one was already remarked by guardMutation.
func (h *hlo) inline(cand *inlineSite) {
	old := int64(cand.caller.Size())
	outcome := h.guardMutation(
		obs.Remark{Kind: RemarkInline, Caller: cand.caller.QName, Callee: cand.callee.QName,
			Site: cand.site, Benefit: cand.benefit},
		[]*ir.Func{cand.caller, cand.callee},
		func() ([]*ir.Func, string, error) {
			ptInline.Inject()
			if err := h.performInline(cand); err != nil {
				return nil, "", err
			}
			return nil, fmt.Sprintf("inline %s into %s", cand.callee.QName, cand.caller.QName), nil
		})
	switch outcome {
	case fwOK:
		h.recost(cand.caller, old)
		h.stats.Inlines++
		h.countOp()
		h.remarkInline(cand, true, OK)
	case fwDeclined:
		h.remarkInline(cand, false, RejRetargeted)
	}
}

// inlineBenefit is the figure of merit of Section 2.4: profile frequency
// first, with a penalty for sites colder than the caller's entry, plus
// credit for constant actuals (optimization opportunity) and the
// always-inline pragma.
func (h *hlo) inlineBenefit(e *ipa.Edge) int64 {
	in := e.Instr()
	var freq int64
	if h.hasProfile {
		freq = e.Count()
	} else {
		freq = ipa.BlockWeight(e.Caller, e.Block) / 16
		if freq == 0 {
			freq = 1
		}
	}
	nconst := 0
	for _, a := range in.Args {
		if a.Kind == ir.KindConst || a.Kind == ir.KindFuncAddr || a.Kind == ir.KindGlobalAddr {
			nconst++
		}
	}
	// Per-call savings: call overhead (frame, save/restore, branch) plus
	// the scalar-optimization opportunity from constants.
	b := freq * int64(10+2*len(in.Args)+6*nconst)
	if h.opts.ColdPenalty && h.hasProfile && e.Count() < e.Caller.EntryCount {
		b /= 4
	}
	if e.Callee.AlwaysInline {
		b = b*1000 + 1000
	}
	return b
}

// performInline splices the callee body into the caller at the site,
// remapping registers, frame offsets and block indices, binding formals
// to actuals, turning returns into jumps to the continuation, scaling
// profile counts, and promoting cross-module statics.
func (h *hlo) performInline(cand *inlineSite) error {
	caller, callee := cand.caller, cand.callee
	blk, idx, ok := ir.FindSite(caller, cand.site)
	if !ok {
		return fmt.Errorf("core: site %d vanished from %s", cand.site, caller.QName)
	}
	call := blk.Instrs[idx].Clone()
	if call.Op != ir.Call || call.Callee != callee.QName {
		// The site was retargeted (e.g. to a clone) since the graph was
		// built; skip rather than inline the wrong body.
		return fmt.Errorf("core: site %d retargeted", cand.site)
	}

	regBase := ir.Reg(caller.NumRegs)
	caller.NumRegs += callee.NumRegs
	frameBase := caller.FrameSize
	caller.FrameSize += callee.FrameSize
	blockBase := len(caller.Blocks)
	contIndex := blockBase + len(callee.Blocks)

	siteCount := blk.Count
	calleeEntry := callee.EntryCount

	// Copy and remap the callee body.
	copies := make([]*ir.Block, 0, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		nb := cb.Clone()
		nb.Index = blockBase + cb.Index
		nb.Depth = cb.Depth + blk.Depth
		if calleeEntry > 0 {
			nb.Count = cb.Count * siteCount / calleeEntry
		} else {
			nb.Count = 0
		}
		remapped := nb.Instrs[:0]
		for _, in := range nb.Instrs {
			in.Site = 0
			if in.HasDst() {
				in.Dst += regBase
			}
			in.Operands(func(o *ir.Operand) {
				if o.Kind == ir.KindReg {
					o.Reg += regBase
				}
			})
			switch in.Op {
			case ir.FrameAddr:
				in.A = ir.ConstOp(in.A.Val + frameBase)
			case ir.Br:
				in.Then += blockBase
				in.Else += blockBase
			case ir.Jmp:
				in.Then += blockBase
			case ir.Ret:
				// Return value lands in the call's destination; control
				// transfers to the continuation.
				if call.Dst != ir.NoReg {
					remapped = append(remapped, ir.Instr{Op: ir.Mov, Dst: call.Dst, A: in.A, Pos: in.Pos})
				}
				in = ir.Instr{Op: ir.Jmp, Then: contIndex, Pos: in.Pos}
			}
			remapped = append(remapped, in)
		}
		nb.Instrs = remapped
		copies = append(copies, nb)
	}

	// Continuation block takes the remainder of the split block.
	cont := &ir.Block{
		Index:  contIndex,
		Count:  blk.Count,
		Depth:  blk.Depth,
		Instrs: append([]ir.Instr(nil), blk.Instrs[idx+1:]...),
	}

	// The split block binds formals and jumps into the copied entry.
	if h.opts.InjectBug == BugInlineSwapArgs && len(call.Args) >= 2 {
		call.Args[0], call.Args[1] = call.Args[1], call.Args[0]
	}
	head := blk.Instrs[:idx:idx]
	for i := 0; i < callee.NumParams; i++ {
		var a ir.Operand
		if i < len(call.Args) {
			a = call.Args[i]
		} else {
			a = ir.ConstOp(0)
		}
		head = append(head, ir.Instr{Op: ir.Mov, Dst: regBase + ir.Reg(i), A: a, Pos: call.Pos})
	}
	head = append(head, ir.Instr{Op: ir.Jmp, Then: blockBase, Pos: call.Pos})
	blk.Instrs = head

	if h.opts.InjectBug == BugInlineBadReg {
		cont.Instrs = append([]ir.Instr{
			{Op: ir.Mov, Dst: ir.Reg(caller.NumRegs) + 1, A: ir.ConstOp(0), Pos: call.Pos},
		}, cont.Instrs...)
	}
	caller.Blocks = append(caller.Blocks, copies...)
	caller.Blocks = append(caller.Blocks, cont)
	caller.InvalidateSize()

	// Adapt the callee's residual profile: the inlined portion of its
	// execution no longer flows through the original body.
	if calleeEntry > 0 && siteCount > 0 {
		for _, cb := range callee.Blocks {
			cb.Count -= cb.Count * siteCount / calleeEntry
			if cb.Count < 0 {
				cb.Count = 0
			}
		}
		callee.EntryCount -= siteCount
		if callee.EntryCount < 0 {
			callee.EntryCount = 0
		}
	}

	if callee.Module != caller.Module {
		h.promoteStatics(copies, callee.Module)
	}
	return nil
}

// promoteStatics marks module-static symbols referenced by code that
// moved into another module as promoted to global scope, mirroring the
// paper's unique renaming of file statics. Canonical names are already
// program-unique, so promotion is pure bookkeeping here.
func (h *hlo) promoteStatics(blocks []*ir.Block, fromModule string) {
	promoteFunc := func(sym string) {
		if f := h.prog.Func(sym); f != nil && f.Module == fromModule && f.Static && !f.Promoted {
			f.Promoted = true
			h.stats.Promotions++
		}
	}
	promoteGlobal := func(sym string) {
		if g := h.prog.Global(sym); g != nil && g.Module == fromModule && g.Static && !g.Promoted {
			g.Promoted = true
			h.stats.Promotions++
		}
	}
	for _, b := range blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call && !ir.IsRuntime(in.Callee) {
				promoteFunc(in.Callee)
			}
			in.Operands(func(o *ir.Operand) {
				switch o.Kind {
				case ir.KindFuncAddr:
					if !ir.IsRuntime(o.Sym) {
						promoteFunc(o.Sym)
					}
				case ir.KindGlobalAddr:
					promoteGlobal(o.Sym)
				}
			})
		}
	}
}
