package opt

import (
	"sync"

	"repro/internal/ir"
)

// Purity reports whether a direct call to the named routine is free of
// side effects and guaranteed to terminate, so a call whose result is
// unused may be deleted. internal/ipa computes this interprocedurally;
// passing nil treats every call as impure.
type Purity func(callee string) bool

// regSet is a simple dense bitset over virtual registers.
type regSet []uint64

// dceState is DCE's pooled working memory: the liveness slab, the
// per-block set headers, and the two scratch slices. Contents are
// fully reinitialized on checkout (the slab by clearing, the scratch
// slices by truncation), so nothing observable leaks between calls.
type dceState struct {
	slab    []uint64
	sets    []regSet
	scratch []ir.Reg
	keepRev []ir.Instr
}

var dcePool = sync.Pool{New: func() any { return new(dceState) }}

func (s regSet) has(r ir.Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }
func (s regSet) add(r ir.Reg)      { s[r/64] |= 1 << (uint(r) % 64) }
func (s regSet) del(r ir.Reg)      { s[r/64] &^= 1 << (uint(r) % 64) }

// unionInto ors o into s, reporting whether s changed.
func (s regSet) unionInto(o regSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// DCE removes instructions whose results are never used and which have
// no observable effect, including calls to pure routines (the paper's
// interprocedural-analysis deletion of do-nothing library calls, as in
// the 072.sc curses library). It reports whether anything changed.
func DCE(f *ir.Func, pure Purity) bool {
	// One pooled backing array holds every block's in/out set, and one
	// scratch set serves the per-visit transfer — the per-block clones
	// used to be a noticeable slice of the compiler's allocation volume,
	// and after the slab consolidation the slab itself still was (~18%
	// of all bytes over a Table 1 run), so it is now checked out of a
	// sync.Pool and cleared: a memclr is far cheaper than the GC load
	// of a fresh allocation per call.
	nb := len(f.Blocks)
	w := int(f.NumRegs+63) / 64
	st := dcePool.Get().(*dceState)
	defer dcePool.Put(st)
	if need := (2*nb + 1) * w; cap(st.slab) < need {
		st.slab = make([]uint64, need)
	} else {
		clear(st.slab[:need])
	}
	slab := st.slab[:(2*nb+1)*w]
	if cap(st.sets) < 2*nb {
		st.sets = make([]regSet, 2*nb)
	}
	liveIn := st.sets[:nb]
	liveOut := st.sets[nb : 2*nb]
	for i := range f.Blocks {
		liveIn[i], slab = slab[:w:w], slab[w:]
		liveOut[i], slab = slab[:w:w], slab[w:]
	}
	in := regSet(slab[:w:w])
	scratch := st.scratch
	defer func() { st.scratch = scratch[:0] }()
	// Iterate to a liveness fixpoint.
	for {
		changed := false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			out := liveOut[bi]
			ss, n := b.Succs()
			for _, s := range ss[:n] {
				if out.unionInto(liveIn[s]) {
					changed = true
				}
			}
			copy(in, out)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				instr := &b.Instrs[i]
				if instr.HasDst() {
					in.del(instr.Dst)
				}
				scratch = instr.Uses(scratch[:0])
				for _, r := range scratch {
					in.add(r)
				}
			}
			if liveIn[bi].unionInto(in) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Remove dead instructions with a backward scan per block.
	removedAny := false
	live := in // reuse the scratch set
	keepRev := st.keepRev
	defer func() { st.keepRev = keepRev[:0] }()
	for bi, b := range f.Blocks {
		copy(live, liveOut[bi])
		kept := b.Instrs[:0]
		// Walk backward, marking survivors; then reverse in place.
		keepRev = keepRev[:0]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			instr := b.Instrs[i]
			if dead(&instr, live, pure) {
				removedAny = true
				continue
			}
			if instr.HasDst() {
				live.del(instr.Dst)
			}
			scratch = instr.Uses(scratch[:0])
			for _, r := range scratch {
				live.add(r)
			}
			keepRev = append(keepRev, instr)
		}
		for i := len(keepRev) - 1; i >= 0; i-- {
			kept = append(kept, keepRev[i])
		}
		b.Instrs = kept
	}
	if removedAny {
		f.InvalidateSize()
	}
	return removedAny
}

// dead reports whether the instruction can be deleted given the
// registers live after it.
func dead(in *ir.Instr, liveAfter regSet, pure Purity) bool {
	switch in.Op {
	case ir.Nop:
		return true
	case ir.Mov, ir.Neg, ir.Not, ir.Load, ir.FrameAddr:
		return !liveAfter.has(in.Dst)
	case ir.Call:
		if pure == nil || !pure(in.Callee) {
			return false
		}
		return in.Dst == ir.NoReg || !liveAfter.has(in.Dst)
	default:
		if in.Op.IsBinary() {
			return !liveAfter.has(in.Dst)
		}
		return false
	}
}
