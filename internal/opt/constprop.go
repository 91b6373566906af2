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
	"slices"
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
// per-block environments plus the out scratch, the per-block flags, the
// reverse postorder with its DFS stack, the per-block delta lists, the
// sparse-meet scratch, and the constant table with its intern index.
// Pooling it matters: the per-visit env clones the pool replaces were
// the compiler's largest allocation source (≈36% of all bytes over a
// Table 1 run), and the GC cycles they forced also drained the
// simulator's and interpreter's state pools on every cell.
type cpState struct {
	slab   []lv
	ins    []env
	marks  []bool // reached, pending, fresh and seen: nb each
	order  []int
	stack  []dfsFrame
	deltas [][]ir.Reg // deltas[b]: registers whose ins[b] cell changed since b was last processed
	sparse []ir.Reg
	consts []ir.Operand // consts[v] for every constant cell v; [0:2] unused
	ids    map[ir.Operand]lv
}

// dfsFrame is one entry of rpo's DFS stack: a block and how many of its
// successors the search has taken.
type dfsFrame struct{ b, i int }

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

// meet is the lattice meet of a successor's cell n with an out cell o:
// top in o is the identity and bottom in n absorbs; otherwise n takes
// o's constant if it was top and falls to bottom if it held a different
// one.
func meet(n, o lv) lv {
	if o == top || n == o || n == bottom {
		return n
	}
	if n == top {
		return o
	}
	return bottom
}

// rpo returns the blocks reachable from the entry in reverse postorder,
// marking each in seen.
func (st *cpState) rpo(f *ir.Func, seen []bool) []int {
	order, stack := st.order[:0], append(st.stack[:0], dfsFrame{})
	seen[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		ss, n := f.Blocks[top.b].Succs()
		if top.i < n {
			s := ss[top.i]
			top.i++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		order = append(order, top.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(order)
	st.order, st.stack = order, stack
	return order
}

// ConstProp performs a forward conditional-constant dataflow over f and
// rewrites the function: operands known constant are substituted,
// foldable instructions become moves of constants, branches on constants
// become jumps, and indirect calls through known function addresses
// become direct calls. It reports whether anything changed.
func ConstProp(f *ir.Func) bool { return constProp(f, nil) }

// constProp is ConstProp adding its block visits and met cells into w
// (nil allowed).
//
// The fixpoint makes passes over the reachable blocks in reverse
// postorder, processing each block whose in-state changed, until a pass
// processes none. A block's first processing meets every register into
// each reached successor; a later one meets only the registers in its
// delta list (those whose in-cell changed since its last processing)
// and the registers it defines. That is exact: for any other r,
// out[r] == ins[b][r] still holds the value b met into every successor
// last time, and a meet only lowers a cell, so meeting it again changes
// nothing. Every merge therefore reports the change the dense merge
// would, and since meet and transfer are monotone, any fair visit order
// reaches the same maximal fixpoint. TestConstPropMatchesReference and
// TestConstPropCornerCases pin the result to the dense LIFO reference
// in constprop_ref_test.go, and the former bounds the work against it.
func constProp(f *ir.Func, w *Work) bool {
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
	if cap(st.marks) < 4*nb {
		st.marks = make([]bool, 4*nb)
	}
	if len(st.deltas) < nb {
		st.deltas = append(st.deltas, make([][]ir.Reg, nb-len(st.deltas))...)
	}
	ins := st.ins[:nb]
	for i := range ins {
		ins[i] = env(st.slab[i*nr : (i+1)*nr])
	}
	deltas := st.deltas[:nb]
	for i := range deltas {
		deltas[i] = deltas[i][:0]
	}
	// A block's env is read only after its reached bit is set, and the
	// first touch is a full overwrite (copy below), so stale slab
	// contents never leak between calls; only entry needs clearing.
	// pending marks a block whose in-state changed since it was last
	// processed; fresh one reached but not yet processed.
	marks := st.marks[:4*nb]
	clear(marks)
	reached, pending, fresh, seen := marks[:nb], marks[nb:2*nb], marks[2*nb:3*nb], marks[3*nb:]
	// Entry: parameters and everything else start varying only when
	// used before definition; the lattice handles that via top.
	entry := ins[0]
	clear(entry)
	for i := 0; i < f.NumParams; i++ {
		entry[i] = bottom
	}
	reached[0], pending[0], fresh[0] = true, true, true
	order := st.rpo(f, seen)

	// out is scratch reused across visits; each ins[s] is a uniquely
	// owned slice (overwritten on first reach), so successor states meet
	// in place instead of clone-merge-compare.
	out := env(st.slab[nb*nr : (nb+1)*nr])
	sparse := st.sparse[:0]
	var visits, cells int64
	for again := true; again; {
		again = false
		for _, bi := range order {
			if !pending[bi] {
				continue
			}
			again = true
			visits++
			pending[bi] = false
			first := fresh[bi]
			fresh[bi] = false
			b := f.Blocks[bi]
			copy(out, ins[bi])
			// sparse collects what a later processing meets: the
			// registers b writes (transfer ignores an out-of-range one,
			// which only illegal IR has) and b's delta list.
			sparse = sparse[:0]
			for i := range b.Instrs {
				in := &b.Instrs[i]
				st.transfer(in, out)
				if !first && in.HasDst() && uint(in.Dst) < uint(nr) {
					sparse = append(sparse, in.Dst)
				}
			}
			if !first {
				sparse = append(sparse, deltas[bi]...)
			}
			deltas[bi] = deltas[bi][:0]
			ss, n := b.Succs()
			for _, s := range ss[:n] {
				next := ins[s][:len(out)]
				if !reached[s] {
					copy(next, out)
					reached[s], pending[s], fresh[s] = true, true, true
					continue
				}
				// A fresh s meets densely on its first processing, so it
				// keeps no delta list yet. A self-merge (s == bi) can
				// change only cells bi defines, since for any other r
				// out[r] == ins[bi][r], and bi meets its defs on every
				// later processing; so it records nothing either.
				track := !fresh[s] && s != bi
				sd := deltas[s]
				changed := false
				if first {
					cells += int64(len(out))
					for r, o := range out {
						if m := meet(next[r], o); m != next[r] {
							next[r] = m
							changed = true
							if track {
								sd = append(sd, ir.Reg(r))
							}
						}
					}
				} else {
					cells += int64(len(sparse))
					for _, r := range sparse {
						if m := meet(next[r], out[r]); m != next[r] {
							next[r] = m
							changed = true
							if track {
								sd = append(sd, r)
							}
						}
					}
				}
				deltas[s] = sd
				if changed {
					pending[s] = true
				}
			}
		}
	}
	st.sparse = sparse
	if w != nil {
		w.CPVisits += visits
		w.CPCells += cells
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
