package opt_test

// The reference dead-code eliminator: opt.DCE as it stood before its
// liveness fixpoint became word arithmetic over per-block uses and
// definitions, kept verbatim (only renamed) so TestDCEMatchesReference
// can compare the two on the same inputs. Each fixpoint visit walks the
// block's instructions backward from its live-out set.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/opt"
)

// refRegSet is a simple dense bitset over virtual registers.
type refRegSet []uint64

// refDCEState is DCE's pooled working memory: the liveness slab, the
// per-block set headers, and the two scratch slices. Contents are
// fully reinitialized on checkout (the slab by clearing, the scratch
// slices by truncation), so nothing observable leaks between calls.
type refDCEState struct {
	slab    []uint64
	sets    []refRegSet
	scratch []ir.Reg
	keepRev []ir.Instr
}

var refDCEPool = sync.Pool{New: func() any { return new(refDCEState) }}

func (s refRegSet) has(r ir.Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }
func (s refRegSet) add(r ir.Reg)      { s[r/64] |= 1 << (uint(r) % 64) }
func (s refRegSet) del(r ir.Reg)      { s[r/64] &^= 1 << (uint(r) % 64) }

// unionInto ors o into s, reporting whether s changed.
func (s refRegSet) unionInto(o refRegSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// refDCE is the reference DCE.
func refDCE(f *ir.Func, pure opt.Purity) bool {
	// One pooled backing array holds every block's in/out set, and one
	// scratch set serves the per-visit transfer — the per-block clones
	// used to be a noticeable slice of the compiler's allocation volume,
	// and after the slab consolidation the slab itself still was (~18%
	// of all bytes over a Table 1 run), so it is now checked out of a
	// sync.Pool and cleared: a memclr is far cheaper than the GC load
	// of a fresh allocation per call.
	nb := len(f.Blocks)
	w := int(f.NumRegs+63) / 64
	st := refDCEPool.Get().(*refDCEState)
	defer refDCEPool.Put(st)
	if need := (2*nb + 1) * w; cap(st.slab) < need {
		st.slab = make([]uint64, need)
	} else {
		clear(st.slab[:need])
	}
	slab := st.slab[:(2*nb+1)*w]
	if cap(st.sets) < 2*nb {
		st.sets = make([]refRegSet, 2*nb)
	}
	liveIn := st.sets[:nb]
	liveOut := st.sets[nb : 2*nb]
	for i := range f.Blocks {
		liveIn[i], slab = slab[:w:w], slab[w:]
		liveOut[i], slab = slab[:w:w], slab[w:]
	}
	in := refRegSet(slab[:w:w])
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
			if refDead(&instr, live, pure) {
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

// refDead reports whether the instruction can be deleted given the
// registers live after it.
func refDead(in *ir.Instr, liveAfter refRegSet, pure opt.Purity) bool {
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

// TestDCEMatchesReference pins DCE to the instruction-walk reference
// it replaced: on clones of every function of the specsuite and of 100
// randprog programs, raw and at several HLO stop points, with and
// without the program's purity facts, each of three rounds must leave
// identical IR and report the same change. Between rounds both clones
// go through the same ConstProp, Cleanup and LocalCSE.
func TestDCEMatchesReference(t *testing.T) {
	compared, removed := 0, 0
	for _, sp := range stagedCorpus(t) {
		facts := ipa.PureFuncs(ipa.Build(sp.prog))
		for _, pure := range []opt.Purity{nil, func(callee string) bool { return facts[callee] }} {
			for _, f := range sp.prog.AllFuncs() {
				name := fmt.Sprintf("%s pure %v %s", sp.name, pure != nil, f.QName)
				got, want := f.Clone(f.QName), f.Clone(f.QName)
				for round := 0; round < 3; round++ {
					gc, wc := opt.DCE(got, pure), refDCE(want, pure)
					if gs, ws := got.String(), want.String(); gc != wc || gs != ws {
						t.Fatalf("%s round %d: changed %v, reference %v\ngot:\n%s\nreference:\n%s\ninput:\n%s",
							name, round, gc, wc, gs, ws, f)
					}
					if gc {
						removed++
					}
					for _, g := range []*ir.Func{got, want} {
						opt.ConstProp(g)
						opt.Cleanup(g)
						opt.LocalCSE(g)
					}
				}
				compared++
			}
		}
	}
	t.Logf("%d functions compared, %d rounds removed code", compared, removed)
}
