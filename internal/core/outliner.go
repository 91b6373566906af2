package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/obs"
)

// The outliner implements the paper's future-work proposal: "using
// aggressive outlining as a complement to aggressive inlining, to help
// further focus the global optimizer on the truly important stretches
// of code." Profile-cold straight-line code is extracted out of hot
// routines into fresh file-scope routines, shrinking the hot routine's
// instruction footprint (better I-cache behaviour, cheaper downstream
// optimization under the quadratic cost model).
//
// A block is outlineable when:
//
//   - the enclosing routine was entered in training but the block
//     executed far less often than the entry (or never);
//   - its straight-line body (everything but the terminator) is big
//     enough to be worth a call;
//   - the body does not touch the frame (FrameAddr/Alloca cannot move to
//     another routine's frame);
//   - at most MaxParams values flow in and at most one value flows out
//     (the calling convention's shape).
//
// The extracted body becomes a new static routine; the cold block
// shrinks to a single call plus its original terminator.

// outlineColdFraction: a block is cold when count*outlineColdFraction <
// entry count.
const outlineColdFraction = 8

// outlinePass scans every hot routine in scope and extracts cold blocks.
// It returns the number of routines created.
func (h *hlo) outlinePass() int {
	if !h.hasProfile {
		return 0 // outlining is profile-directed
	}
	created := 0
	h.forScope(func(f *ir.Func) {
		if f.EntryCount == 0 || h.skippedFunc(f) {
			return
		}
		created += h.outlineFunc(f)
	})
	return created
}

func (h *hlo) outlineFunc(f *ir.Func) int {
	created := 0
	// remarked tracks blocks already reported so the fixpoint rescans
	// below do not emit duplicate remarks (nil when recording is off).
	var remarked map[*ir.Block]bool
	if h.rec != nil {
		remarked = make(map[*ir.Block]bool)
	}
	remarkOnce := func(b *ir.Block, accepted bool, reason Reason, name string, saved int) {
		if h.rec == nil || remarked[b] {
			return
		}
		remarked[b] = true
		h.remarkOutline(f, b, accepted, reason, name, saved)
	}
	// Liveness is recomputed after each extraction (cheap at our sizes;
	// extraction changes the register footprint of the block).
	for {
		_, liveOut := ir.Liveness(f)
		done := true
		for _, b := range f.Blocks {
			switch r := outlineLegal(f, b, h.opts.OutlineMinSize); r {
			case OK:
				// fall through to the data-flow check
			case OutlineEntry, NotCold:
				continue // not a candidate at all: nothing to report
			default:
				remarkOnce(b, false, r, "", 0)
				continue
			}
			ins, outs, ok := outlineFlows(f, b, liveOut[b.Index])
			if !ok {
				remarkOnce(b, false, TooManyFlows, "", 0)
				continue
			}
			saved := len(b.Instrs) - 1
			old := int64(f.Size())
			var name string
			fs := []*ir.Func{f}
			outcome := h.guardMutation(
				obs.Remark{Kind: RemarkOutline, Caller: f.QName, Site: int32(b.Index),
					Benefit: int64(saved)},
				fs, fs,
				func() ([]*ir.Func, string, error) {
					ptOutline.Inject()
					h.extract(f, b, ins, outs)
					name = fmt.Sprintf("%s$out%d", f.QName, h.outlineSeq)
					return []*ir.Func{h.prog.Func(name)}, "outline " + name, nil
				})
			if outcome != fwOK {
				// Rolled back: f was restored from its snapshot, so the
				// block objects this scan iterates over are stale. Stop
				// outlining this routine rather than retrying into the
				// same failure.
				return created
			}
			h.recost(f, old)
			remarkOnce(b, true, OK, name, saved)
			h.stats.Outlines++
			created++
			if h.stopped() {
				return created
			}
			done = false
			break // block list changed; recompute liveness
		}
		if done {
			return created
		}
	}
}

// outlineFlows computes the registers flowing into and out of the body.
// Out-flows are the body's definitions still live after it (including
// uses by the block's own terminator).
func outlineFlows(f *ir.Func, b *ir.Block, liveAfter ir.RegSet) (ins []ir.Reg, outs []ir.Reg, ok bool) {
	body := b.Instrs[:len(b.Instrs)-1]
	term := &b.Instrs[len(b.Instrs)-1]

	defs := ir.NewRegSet(f.NumRegs)
	inSet := ir.NewRegSet(f.NumRegs)
	var uses []ir.Reg
	for i := range body {
		in := &body[i]
		uses = in.Uses(uses[:0])
		for _, r := range uses {
			if !defs.Has(r) {
				inSet.Add(r)
			}
		}
		if in.HasDst() {
			defs.Add(in.Dst)
		}
	}
	outSet := ir.NewRegSet(f.NumRegs)
	needAfter := liveAfter.Clone()
	uses = term.Uses(uses[:0])
	for _, r := range uses {
		needAfter.Add(r)
	}
	for _, r := range defs.Members() {
		if needAfter.Has(r) {
			outSet.Add(r)
		}
	}
	if inSet.Count() > MaxOutlineParams || outSet.Count() > 1 {
		return nil, nil, false
	}
	return inSet.Members(), outSet.Members(), true
}

// MaxOutlineParams is the calling convention's register-argument limit.
const MaxOutlineParams = 8

// extract builds the outlined routine and rewrites the block.
func (h *hlo) extract(f *ir.Func, b *ir.Block, ins []ir.Reg, outs []ir.Reg) {
	h.outlineSeq++
	qname := fmt.Sprintf("%s$out%d", f.QName, h.outlineSeq)
	body := b.Instrs[:len(b.Instrs)-1]
	term := b.Instrs[len(b.Instrs)-1]

	// Register remap: in-flows become parameters 0..k-1; everything else
	// defined in the body gets a fresh local register.
	remap := make(map[ir.Reg]ir.Reg, len(ins))
	for i, r := range ins {
		remap[r] = ir.Reg(i)
	}
	next := ir.Reg(len(ins))
	mapReg := func(r ir.Reg) ir.Reg {
		if nr, ok := remap[r]; ok {
			return nr
		}
		remap[r] = next
		next++
		return remap[r]
	}

	out := &ir.Func{
		Name:       fmt.Sprintf("%s$out%d", f.Name, h.outlineSeq),
		Module:     f.Module,
		QName:      qname,
		Static:     true,
		Promoted:   true,
		NumParams:  len(ins),
		Relaxed:    f.Relaxed, // keep the technical flags compatible
		NoInline:   true,      // defeat re-inlining of deliberately cold code
		EntryCount: b.Count,
		Pos:        f.Pos,
	}
	nb := &ir.Block{Index: 0, Count: b.Count, Depth: 0}
	for i := range body {
		in := body[i].Clone()
		if in.HasDst() {
			in.Dst = mapReg(in.Dst)
		}
		in.Operands(func(o *ir.Operand) {
			if o.Kind == ir.KindReg {
				o.Reg = mapReg(o.Reg)
			}
		})
		nb.Instrs = append(nb.Instrs, in)
	}
	retVal := ir.ConstOp(0)
	if len(outs) == 1 {
		retVal = ir.RegOp(mapReg(outs[0]))
	}
	nb.Instrs = append(nb.Instrs, ir.Instr{Op: ir.Ret, A: retVal, Pos: f.Pos})
	out.Blocks = []*ir.Block{nb}
	out.NumRegs = int32(next)
	if int(out.NumRegs) < out.NumParams {
		out.NumRegs = int32(out.NumParams)
	}

	if err := h.prog.AddFunc(out); err != nil {
		panic(err) // sequence numbers make the name unique
	}
	if h.scope.Contains(out) {
		h.liveCost += h.costOf(int64(out.Size()))
	}

	// The cold block shrinks to call + original terminator.
	dst := ir.NoReg
	if len(outs) == 1 {
		dst = outs[0]
	}
	args := make([]ir.Operand, len(ins))
	for i, r := range ins {
		args[i] = ir.RegOp(r)
	}
	b.Instrs = []ir.Instr{
		{Op: ir.Call, Dst: dst, Callee: qname, Args: args, Pos: f.Pos},
		term,
	}
	f.InvalidateSize()
}
