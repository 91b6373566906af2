// Package opt implements the classic intraprocedural scalar
// optimizations HLO runs at input time and after every inline/clone
// ("optimize(R')" in the paper's Figures 3 and 4): conditional constant
// propagation, branch folding, CFG cleanup, local value numbering and
// copy propagation, and liveness-based dead-code elimination with
// pure-call deletion.
//
// Constant propagation is what turns a clone's bound formals into folded
// branches, and what converts an indirect call through a propagated
// function address into a direct call — the staged optimization the
// paper highlights (clone → propagate code pointer → direct call →
// inline in a later pass).
package opt

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// lv is a three-level constant lattice cell: top (no information yet),
// bottom (varying), or an interned link-time constant operand (integer,
// global address, or function address), stored as its index into the
// per-call table cpState.consts. Interning through a map keyed by the
// whole Operand makes two constant cells equal exactly when their
// operands are Eq, so a merge is an integer compare.
type lv int32

const (
	top    lv = 0
	bottom lv = 1
)

func (v lv) isConst() bool { return v > bottom }

// env is a per-block lattice environment, indexed densely by register
// (top is 0, so a cleared slice is the all-top state). ConstProp copies
// an environment per block per fixpoint round; the dense 4-byte
// representation keeps that a single small memmove. Out-of-range
// registers are illegal IR (Verify rejects them), so set may drop such
// writes.
type env []lv

func (e env) get(r ir.Reg) lv {
	if r < 0 || int(r) >= len(e) {
		return top
	}
	return e[r]
}

func (e env) set(r ir.Reg, v lv) {
	if r >= 0 && int(r) < len(e) {
		e[r] = v
	}
}

// cpState is ConstProp's pooled working memory: one lv slab carved into
// per-block environments plus the out scratch, the reached/inWork bit
// vectors, the worklist, and the constant table with its intern index.
// Pooling it matters: the per-visit env clones the pool replaces were
// the compiler's largest allocation source (≈36% of all bytes over a
// Table 1 run), and the GC cycles they forced also drained the
// simulator's and interpreter's state pools on every cell.
type cpState struct {
	slab   []lv
	ins    []env
	marks  []bool // reached[0:nb] ++ inWork[nb:2nb]
	work   []int
	consts []ir.Operand // consts[v] for every constant cell v; [0:2] unused
	ids    map[ir.Operand]lv
}

var cpPool = sync.Pool{New: func() any {
	return &cpState{consts: make([]ir.Operand, 2), ids: make(map[ir.Operand]lv)}
}}

// intern returns the constant cell of op.
func (st *cpState) intern(op ir.Operand) lv {
	if v, ok := st.ids[op]; ok {
		return v
	}
	v := lv(len(st.consts))
	st.consts = append(st.consts, op)
	st.ids[op] = v
	return v
}

// ConstProp performs a forward conditional-constant dataflow over f and
// rewrites the function: operands known constant are substituted,
// foldable instructions become moves of constants, branches on constants
// become jumps, and indirect calls through known function addresses
// become direct calls. It reports whether anything changed.
func ConstProp(f *ir.Func) bool {
	nb, nr := len(f.Blocks), int(f.NumRegs)
	st := cpPool.Get().(*cpState)
	defer cpPool.Put(st)
	clear(st.ids)
	st.consts = st.consts[:2]
	if need := (nb + 1) * nr; cap(st.slab) < need {
		st.slab = make([]lv, need)
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
	clear(entry)
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
		b := f.Blocks[bi]
		copy(out, ins[bi])
		for i := range b.Instrs {
			st.transfer(&b.Instrs[i], out)
		}
		for _, s := range b.Succs() {
			next := ins[s][:len(out)]
			if !reached[s] {
				copy(next, out)
				reached[s] = true
			} else {
				// Meet out into next: top in out is the identity and
				// bottom in next absorbs; otherwise next takes out's
				// constant if it was top and falls to bottom if it held
				// a different one.
				changed := false
				for r, o := range out {
					if n := next[r]; o != top && n != o && n != bottom {
						if n == top {
							next[r] = o
						} else {
							next[r] = bottom
						}
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
						*o = st.consts[v]
						changed = true
					}
				}
			})
			// Fold and strength-reduce the instruction itself.
			if foldInstr(in) {
				changed = true
			}
			st.transfer(in, e)
		}
	}
	return changed
}

// transfer updates the lattice environment across one instruction.
func (st *cpState) transfer(in *ir.Instr, e env) {
	val := func(o ir.Operand) lv {
		switch o.Kind {
		case ir.KindConst, ir.KindGlobalAddr, ir.KindFuncAddr:
			return st.intern(o)
		case ir.KindReg:
			return e.get(o.Reg)
		}
		return bottom
	}
	// intConst reports whether v is an integer constant, and its value.
	intConst := func(v lv) (int64, bool) {
		if !v.isConst() || !st.consts[v].IsConst() {
			return 0, false
		}
		return st.consts[v].Val, true
	}
	switch in.Op {
	case ir.Mov:
		e.set(in.Dst, val(in.A))
	case ir.Neg, ir.Not:
		a := val(in.A)
		if v, ok := intConst(a); ok {
			if in.Op == ir.Neg {
				v = -v
			} else if v == 0 {
				v = 1
			} else {
				v = 0
			}
			e.set(in.Dst, st.intern(ir.ConstOp(v)))
		} else if a != top {
			e.set(in.Dst, bottom)
		} else {
			e.set(in.Dst, top)
		}
	case ir.Load, ir.FrameAddr, ir.Alloca, ir.Call, ir.ICall:
		if in.HasDst() {
			e.set(in.Dst, bottom)
		}
	case ir.Store, ir.Ret, ir.Br, ir.Jmp, ir.Nop:
	default:
		if in.Op.IsBinary() {
			a, b := val(in.A), val(in.B)
			x, xok := intConst(a)
			y, yok := intConst(b)
			switch {
			case xok && yok:
				e.set(in.Dst, st.intern(ir.ConstOp(interp.EvalBinary(in.Op, x, y))))
			case a == bottom || b == bottom:
				e.set(in.Dst, bottom)
			case a.isConst() && b.isConst():
				// Symbolic constants (addresses): comparisons of identical
				// symbols fold; everything else is varying but link-constant.
				if in.Op.IsCompare() && a == b {
					e.set(in.Dst, st.intern(ir.ConstOp(interp.EvalBinary(in.Op, 1, 1))))
				} else {
					e.set(in.Dst, bottom)
				}
			default:
				e.set(in.Dst, top)
			}
		}
	}
}

// foldInstr simplifies one instruction in place after operand
// substitution: constant folding, algebraic identities, branch folding,
// and indirect-to-direct call conversion.
func foldInstr(in *ir.Instr) bool {
	switch {
	case in.Op == ir.Br && in.A.IsConst():
		target := in.Else
		if in.A.Val != 0 {
			target = in.Then
		}
		*in = ir.Instr{Op: ir.Jmp, Then: target, Pos: in.Pos}
		return true
	case in.Op == ir.Br && in.Then == in.Else:
		*in = ir.Instr{Op: ir.Jmp, Then: in.Then, Pos: in.Pos}
		return true
	case in.Op == ir.ICall && in.A.Kind == ir.KindFuncAddr:
		// The paper's staged optimization: a propagated code pointer
		// turns an indirect call into a direct call, which later passes
		// can inline or clone.
		*in = ir.Instr{Op: ir.Call, Dst: in.Dst, Callee: in.A.Sym, Args: in.Args, Pos: in.Pos}
		return true
	case in.Op == ir.Neg && in.A.IsConst():
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(-in.A.Val), Pos: in.Pos}
		return true
	case in.Op == ir.Not && in.A.IsConst():
		v := int64(0)
		if in.A.Val == 0 {
			v = 1
		}
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(v), Pos: in.Pos}
		return true
	}
	if !in.Op.IsBinary() {
		return false
	}
	if in.A.IsConst() && in.B.IsConst() {
		v := interp.EvalBinary(in.Op, in.A.Val, in.B.Val)
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.ConstOp(v), Pos: in.Pos}
		return true
	}
	// Algebraic identities that preserve the flat-memory semantics.
	mov := func(a ir.Operand) {
		*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: a, Pos: in.Pos}
	}
	switch in.Op {
	case ir.Add:
		if in.A.IsConst() && in.A.Val == 0 {
			mov(in.B)
			return true
		}
		if in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
	case ir.Sub:
		if in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
		if in.A.Eq(in.B) && in.A.IsReg() {
			mov(ir.ConstOp(0))
			return true
		}
	case ir.Mul:
		if in.A.IsConst() && in.A.Val == 1 {
			mov(in.B)
			return true
		}
		if in.B.IsConst() && in.B.Val == 1 {
			mov(in.A)
			return true
		}
		if in.A.IsConst() && in.A.Val == 0 || in.B.IsConst() && in.B.Val == 0 {
			mov(ir.ConstOp(0))
			return true
		}
	case ir.Or, ir.Xor, ir.Shl, ir.Shr:
		if in.B.IsConst() && in.B.Val == 0 && in.Op != ir.Or {
			mov(in.A)
			return true
		}
		if in.Op == ir.Or && in.B.IsConst() && in.B.Val == 0 {
			mov(in.A)
			return true
		}
	}
	return false
}
