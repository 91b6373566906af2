package opt_test

// The reference constant propagator: opt.ConstProp as it stood before
// its lattice cells became interned 4-byte ids and its fixpoint a
// reverse-postorder delta merge, kept verbatim (only the entry point is
// renamed, foldInstr reached through FoldInstr and Block.Succs called
// in its allocation-free form) so TestConstPropMatchesReference and
// BenchmarkConstProp can compare the two on the same inputs. It counts
// its block visits and met cells into an opt.Work the way the new code
// does, so the test can bound the new code's work against it.

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
)

// latticeVal is a three-level constant lattice value: top (no
// information yet), a known link-time constant operand (integer, global
// address, or function address), or bottom (varying).
type latticeVal struct {
	bot bool
	set bool // false and !bot => top
	op  ir.Operand
}

var bottom = latticeVal{bot: true}

func constVal(op ir.Operand) latticeVal { return latticeVal{set: true, op: op} }

func (v latticeVal) isConst() bool { return v.set && !v.bot }

func meet(a, b latticeVal) latticeVal {
	switch {
	case a.bot || b.bot:
		return bottom
	case !a.set:
		return b
	case !b.set:
		return a
	case a.op.Eq(b.op):
		return a
	default:
		return bottom
	}
}

// env is a per-block lattice environment, indexed densely by register
// (the zero latticeVal is top, so a fresh slice is the all-top state).
// ConstProp copies an environment per block per fixpoint round; the
// dense representation keeps that a single memmove, where a
// register→value map made environment cloning the hottest path in the
// whole compiler on heavily inlined functions. Out-of-range registers
// are illegal IR (Verify rejects them), so set may drop such writes.
type env []latticeVal

func (e env) get(r ir.Reg) latticeVal {
	if r < 0 || int(r) >= len(e) {
		return latticeVal{}
	}
	return e[r]
}

func (e env) set(r ir.Reg, v latticeVal) {
	if r >= 0 && int(r) < len(e) {
		e[r] = v
	}
}

// cpState is ConstProp's pooled working memory: one latticeVal slab
// carved into per-block environments plus the out scratch, the
// reached/inWork bit vectors, and the worklist. Pooling it matters:
// the per-visit env clones the pool replaces were the compiler's
// largest allocation source (≈36% of all bytes over a Table 1 run),
// and the GC cycles they forced also drained the simulator's and
// interpreter's state pools on every cell.
type cpState struct {
	slab  []latticeVal
	ins   []env
	marks []bool // reached[0:nb] ++ inWork[nb:2nb]
	work  []int
}

var cpPool = sync.Pool{New: func() any { return new(cpState) }}

// refConstProp performs a forward conditional-constant dataflow over f and
// rewrites the function: operands known constant are substituted,
// foldable instructions become moves of constants, branches on constants
// become jumps, and indirect calls through known function addresses
// become direct calls. It reports whether anything changed, and adds its
// block visits and met cells to w when w is not nil.
func refConstProp(f *ir.Func, w *opt.Work) bool {
	nb, nr := len(f.Blocks), int(f.NumRegs)
	st := cpPool.Get().(*cpState)
	defer cpPool.Put(st)
	if need := (nb + 1) * nr; cap(st.slab) < need {
		st.slab = make([]latticeVal, need)
	}
	if cap(st.ins) < nb {
		st.ins = make([]env, nb)
	}
	if cap(st.marks) < 2*nb {
		st.marks = make([]bool, 2*nb)
	}
	ins := st.ins[:nb]
	for i := range ins {
		ins[i] = env(st.slab[i*nr : (i+1)*nr])
	}
	// A block's env is read only after its reached bit is set, and the
	// first touch is a full overwrite (copy below), so stale slab
	// contents never leak between calls; only entry needs clearing.
	reached := st.marks[:nb]
	inWork := st.marks[nb : 2*nb]
	for i := range reached {
		reached[i] = false
		inWork[i] = false
	}
	// Entry: parameters and everything else start varying only when
	// used before definition; the lattice handles that via top.
	entry := ins[0]
	for i := range entry {
		entry[i] = latticeVal{}
	}
	for i := 0; i < f.NumParams; i++ {
		entry[i] = bottom
	}
	reached[0] = true

	work := append(st.work[:0], 0)
	defer func() { st.work = work[:0] }()
	inWork[0] = true
	// out is scratch reused across visits; each ins[s] is a uniquely
	// owned slice (overwritten on first reach), so successor states meet
	// in place instead of clone-merge-compare.
	out := env(st.slab[nb*nr : (nb+1)*nr])
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[bi] = false
		if w != nil {
			w.CPVisits++
		}
		b := f.Blocks[bi]
		copy(out, ins[bi])
		for i := range b.Instrs {
			transfer(&b.Instrs[i], out)
		}
		ss, n := b.Succs()
		for _, s := range ss[:n] {
			next := ins[s]
			if !reached[s] {
				copy(next, out)
				reached[s] = true
			} else {
				if w != nil {
					w.CPCells += int64(len(out))
				}
				changed := false
				for r := range out {
					// meet with top is the identity, so top entries of out
					// leave next unchanged.
					m := meet(next[r], out[r])
					v := next[r]
					if m.bot != v.bot || m.set != v.set || !m.op.Eq(v.op) {
						next[r] = m
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}

	// Rewrite using the fixpoint states.
	changed := false
	for bi, b := range f.Blocks {
		if !reached[bi] {
			continue // unreachable; Cleanup removes it
		}
		e := ins[bi]
		// The fixpoint is done and ins[bi] is read only here, so the
		// rewrite walks it forward in place.
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// Substitute known-constant register operands.
			in.Operands(func(o *ir.Operand) {
				if o.Kind == ir.KindReg {
					if v := e.get(o.Reg); v.isConst() {
						*o = v.op
						changed = true
					}
				}
			})
			// Fold and strength-reduce the instruction itself.
			if opt.FoldInstr(in) {
				changed = true
			}
			transfer(in, e)
		}
	}
	return changed
}

// transfer updates the lattice environment across one instruction.
func transfer(in *ir.Instr, e env) {
	val := func(o ir.Operand) latticeVal {
		switch o.Kind {
		case ir.KindConst, ir.KindGlobalAddr, ir.KindFuncAddr:
			return constVal(o)
		case ir.KindReg:
			return e.get(o.Reg)
		}
		return bottom
	}
	switch in.Op {
	case ir.Mov:
		e.set(in.Dst, val(in.A))
	case ir.Neg, ir.Not:
		a := val(in.A)
		if a.isConst() && a.op.IsConst() {
			v := a.op.Val
			if in.Op == ir.Neg {
				v = -v
			} else if v == 0 {
				v = 1
			} else {
				v = 0
			}
			e.set(in.Dst, constVal(ir.ConstOp(v)))
		} else if a.bot || a.isConst() {
			e.set(in.Dst, bottom)
		} else {
			e.set(in.Dst, latticeVal{})
		}
	case ir.Load, ir.FrameAddr, ir.Alloca, ir.Call, ir.ICall:
		if in.HasDst() {
			e.set(in.Dst, bottom)
		}
	case ir.Store, ir.Ret, ir.Br, ir.Jmp, ir.Nop:
	default:
		if in.Op.IsBinary() {
			a, b := val(in.A), val(in.B)
			switch {
			case a.isConst() && b.isConst() && a.op.IsConst() && b.op.IsConst():
				e.set(in.Dst, constVal(ir.ConstOp(interp.EvalBinary(in.Op, a.op.Val, b.op.Val))))
			case a.bot || b.bot:
				e.set(in.Dst, bottom)
			case a.isConst() && b.isConst():
				// Symbolic constants (addresses): comparisons of identical
				// symbols fold; everything else is varying but link-constant.
				if in.Op.IsCompare() && a.op.Eq(b.op) {
					e.set(in.Dst, constVal(ir.ConstOp(interp.EvalBinary(in.Op, 1, 1))))
				} else {
					e.set(in.Dst, bottom)
				}
			default:
				e.set(in.Dst, latticeVal{})
			}
		}
	}
}
