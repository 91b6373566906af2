package opt

import (
	"sync"

	"repro/internal/ir"
)

// LocalCSE performs per-block value numbering over pure operations and
// loads, plus local copy propagation. Memory writes, calls and alloca
// invalidate load availability. It reports whether anything changed.
func LocalCSE(f *ir.Func) bool { return localCSE(f, nil) }

// localCSE is LocalCSE adding the facts its kills examined into w (nil
// allowed).
func localCSE(f *ir.Func, w *Work) bool {
	st := csePool.Get().(*cseState)
	defer csePool.Put(st)
	st.reset(int(f.NumRegs))
	changed := false
	for _, b := range f.Blocks {
		changed = st.block(b) || changed
	}
	if w != nil {
		w.CSEScans += st.scans
	}
	return changed
}

// exprKey names a computed expression: its operation and two operands,
// each as its kind and an integer payload (the constant, the register,
// or a symbol id interned per call), so building, hashing and comparing
// a key touches no string. For canonical operands two keys are equal
// exactly when their operations and operands are. A unary expression
// leaves b zero.
type exprKey struct {
	op     ir.Op
	ak, bk ir.OperandKind
	a, b   int64
}

// mentions reports whether r is one of k's operands.
func (k exprKey) mentions(r ir.Reg) bool {
	return k.ak == ir.KindReg && k.a == int64(r) || k.bk == ir.KindReg && k.b == int64(r)
}

// copyRef is the entry that stands for "the copy fact of register d" in
// a uses list. Mov never keys an expression, so it cannot collide with
// one.
func copyRef(d ir.Reg) exprKey { return exprKey{op: ir.Mov, a: int64(d)} }

// cseState is LocalCSE's pooled working memory. A block's facts are of
// three kinds:
//   - avail maps an expression to the register holding its value;
//   - copyOf[r] is a simpler operand with r's value, live while
//     copyGen[r] is the block's stamp;
//   - the stored fact: the value last stored at an address. Every store
//     kills memory facts before recording its own, so there is at most
//     one.
//
// Defining r must drop every fact that mentions r. uses[r] lists the
// avail keys and copy facts that mentioned r when they were made, so a
// kill walks only those, checking each against the live tables (the
// fact may have died or been remade since), and then empties the list:
// nothing that mentions r survives the kill. loads lists the block's
// load keys, so a memory kill walks only those. Stamps rather than
// clears retire one block's copy facts and uses lists, and avail loses
// exactly the keys the block added, so a block costs time in its own
// length, not in the function's register count.
type cseState struct {
	avail   map[exprKey]ir.Reg
	keys    []exprKey // keys added to avail in the current block
	loads   []exprKey // load keys added since the last memory kill
	copyOf  []ir.Operand
	copyGen []uint32
	uses    [][]exprKey
	usesGen []uint32 // uses[r] belongs to the current block iff usesGen[r] == gen
	gen     uint32   // the current block's stamp, never 0

	stored            bool
	storeAt, storeVal ir.Operand

	syms  map[string]int64 // symbol ids of the current call
	scans int64            // facts examined by kills in the current call
}

var csePool = sync.Pool{New: func() any {
	return &cseState{avail: make(map[exprKey]ir.Reg), syms: make(map[string]int64)}
}}

// reset readies the state for a function with nregs registers.
func (st *cseState) reset(nregs int) {
	if len(st.copyGen) < nregs {
		// Fresh stamps are 0, which no block uses.
		st.copyOf = make([]ir.Operand, nregs)
		st.copyGen = make([]uint32, nregs)
		st.usesGen = make([]uint32, nregs)
		st.uses = append(st.uses, make([][]exprKey, nregs-len(st.uses))...)
	}
	if len(st.syms) > 0 {
		clear(st.syms)
	}
	st.scans = 0
}

// payload returns o's integer payload in an exprKey.
func (st *cseState) payload(o ir.Operand) int64 {
	switch o.Kind {
	case ir.KindConst:
		return o.Val
	case ir.KindReg:
		return int64(o.Reg)
	case ir.KindGlobalAddr, ir.KindFuncAddr:
		id, ok := st.syms[o.Sym]
		if !ok {
			id = int64(len(st.syms))
			st.syms[o.Sym] = id
		}
		return id
	}
	return 0
}

func (st *cseState) key(op ir.Op, a, b ir.Operand) exprKey {
	return exprKey{op: op, ak: a.Kind, bk: b.Kind, a: st.payload(a), b: st.payload(b)}
}

// use records that the fact k mentions r.
func (st *cseState) use(r ir.Reg, k exprKey) {
	if st.usesGen[r] != st.gen {
		st.usesGen[r] = st.gen
		st.uses[r] = st.uses[r][:0]
	}
	st.uses[r] = append(st.uses[r], k)
}

// copyFact returns the operand r copies, if that fact is live.
func (st *cseState) copyFact(r ir.Reg) (ir.Operand, bool) {
	if st.copyGen[r] != st.gen {
		return ir.Operand{}, false
	}
	return st.copyOf[r], true
}

func (st *cseState) setCopy(d ir.Reg, src ir.Operand) {
	st.copyOf[d], st.copyGen[d] = src, st.gen
	if src.IsReg() {
		st.use(src.Reg, copyRef(d))
	}
}

// addAvail records that holder computes k. The caller has killed
// holder, and k does not mention it.
func (st *cseState) addAvail(k exprKey, holder ir.Reg) {
	st.avail[k] = holder
	st.keys = append(st.keys, k)
	st.use(holder, k)
	if k.ak == ir.KindReg {
		st.use(ir.Reg(k.a), k)
	}
	if k.bk == ir.KindReg && !(k.ak == ir.KindReg && k.b == k.a) {
		st.use(ir.Reg(k.b), k)
	}
	if k.op == ir.Load {
		st.loads = append(st.loads, k)
	}
}

// killReg drops every fact that mentions r.
func (st *cseState) killReg(r ir.Reg) {
	st.copyGen[r] = 0
	if st.usesGen[r] == st.gen {
		for _, k := range st.uses[r] {
			st.scans++
			if k.op == ir.Mov {
				d := ir.Reg(k.a)
				if src, ok := st.copyFact(d); ok && src.IsReg() && src.Reg == r {
					st.copyGen[d] = 0
				}
				continue
			}
			if h, ok := st.avail[k]; ok && (h == r || k.mentions(r)) {
				delete(st.avail, k)
			}
		}
		st.uses[r] = st.uses[r][:0]
	}
	if st.stored {
		st.scans++
		if st.storeAt.IsReg() && st.storeAt.Reg == r || st.storeVal.IsReg() && st.storeVal.Reg == r {
			st.stored = false
		}
	}
}

// killLoads drops load and store-forwarding facts (stores and calls
// may alias anything).
func (st *cseState) killLoads() {
	for _, k := range st.loads {
		st.scans++
		delete(st.avail, k)
	}
	st.loads = st.loads[:0]
	if st.stored {
		st.scans++
		st.stored = false
	}
}

// reuse turns in into a copy of the register already holding k, if
// there is one other than in's own destination.
func (st *cseState) reuse(in *ir.Instr, k exprKey) bool {
	holder, ok := st.avail[k]
	if !ok || holder == in.Dst {
		return false
	}
	*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.RegOp(holder), Pos: in.Pos}
	st.killReg(in.Dst)
	st.setCopy(in.Dst, ir.RegOp(holder))
	return true
}

// block value-numbers one block. It first retires the facts of the
// block before it: a new stamp, and avail loses the keys that block
// added.
func (st *cseState) block(b *ir.Block) bool {
	st.gen++
	if st.gen == 0 {
		clear(st.copyGen)
		clear(st.usesGen)
		st.gen = 1
	}
	for _, k := range st.keys {
		delete(st.avail, k)
	}
	st.keys, st.loads, st.stored = st.keys[:0], st.loads[:0], false
	changed := false
	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Copy-propagate operands first.
		in.Operands(func(o *ir.Operand) {
			if o.Kind == ir.KindReg {
				if rep, ok := st.copyFact(o.Reg); ok {
					*o = rep
					changed = true
				}
			}
		})

		switch {
		case in.Op == ir.Mov:
			dst := in.Dst
			src := in.A
			st.killReg(dst)
			if !(src.IsReg() && src.Reg == dst) {
				st.setCopy(dst, src)
			}
		case in.Op == ir.Load:
			// Store-to-load forwarding: a load from the exact address of
			// the most recent store sees the stored value.
			if st.stored && st.storeAt == in.A {
				val := st.storeVal
				*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: val, Pos: in.Pos}
				st.killReg(in.Dst)
				if !(val.IsReg() && val.Reg == in.Dst) {
					st.setCopy(in.Dst, val)
				}
				changed = true
				continue
			}
			k := st.key(ir.Load, in.A, ir.Operand{})
			if st.reuse(in, k) {
				changed = true
				continue
			}
			dst := in.Dst
			st.killReg(dst)
			if !k.mentions(dst) {
				st.addAvail(k, dst)
			}
		case in.Op == ir.FrameAddr || in.Op == ir.Neg || in.Op == ir.Not || in.Op.IsBinary():
			var bop ir.Operand
			if in.Op.IsBinary() {
				bop = in.B
			}
			k := st.key(in.Op, in.A, bop)
			if st.reuse(in, k) {
				changed = true
				continue
			}
			dst := in.Dst
			st.killReg(dst)
			// Only record if the expression doesn't depend on its own dst.
			if !k.mentions(dst) {
				st.addAvail(k, dst)
			}
		case in.Op == ir.Store:
			st.killLoads()
			st.stored, st.storeAt, st.storeVal = true, in.A, in.B
		case in.Op == ir.Call || in.Op == ir.ICall:
			st.killLoads()
			if in.HasDst() {
				st.killReg(in.Dst)
			}
		case in.Op == ir.Alloca:
			st.killLoads()
			st.killReg(in.Dst)
		}
	}
	return changed
}
