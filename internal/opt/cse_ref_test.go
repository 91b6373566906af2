package opt_test

// The reference local value numbering: opt.LocalCSE's per-block pass as
// it stood before its facts were indexed by register, kept verbatim
// (only renamed) so TestLocalCSEMatchesReference and BenchmarkLocalCSE
// can compare the two on the same inputs. It counts the facts its kills
// examine (every entry of all three maps on each kill) into an opt.Work
// the way the new code counts its own, so the test can bound the new
// code's work against it.

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/randprog"
)

// refLocalCSE is the reference LocalCSE, adding its kills' scans to w.
func refLocalCSE(f *ir.Func, w *opt.Work) bool {
	changed := false
	for _, b := range f.Blocks {
		changed = refCSEBlock(b, &w.CSEScans) || changed
	}
	return changed
}

type refExprKey struct {
	op   ir.Op
	a, b ir.Operand
}

func refCSEBlock(b *ir.Block, scans *int64) bool {
	avail := make(map[refExprKey]ir.Reg)      // computed expression -> holding register
	copies := make(map[ir.Reg]ir.Operand)     // register -> simpler operand with same value
	stored := make(map[ir.Operand]ir.Operand) // last value stored at an address operand
	changed := false

	// killReg drops every fact that mentions r.
	killReg := func(r ir.Reg) {
		delete(copies, r)
		*scans += int64(len(copies) + len(avail) + len(stored))
		for dst, src := range copies {
			if src.IsReg() && src.Reg == r {
				delete(copies, dst)
			}
		}
		for k, holder := range avail {
			if holder == r || k.a.IsReg() && k.a.Reg == r || k.b.IsReg() && k.b.Reg == r {
				delete(avail, k)
			}
		}
		for addr, val := range stored {
			if addr.IsReg() && addr.Reg == r || val.IsReg() && val.Reg == r {
				delete(stored, addr)
			}
		}
	}
	// killLoads drops load and store-forwarding facts (stores and calls
	// may alias anything).
	killLoads := func() {
		*scans += int64(len(avail) + len(stored))
		for k := range avail {
			if k.op == ir.Load {
				delete(avail, k)
			}
		}
		for addr := range stored {
			delete(stored, addr)
		}
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Copy-propagate operands first.
		in.Operands(func(o *ir.Operand) {
			if o.Kind == ir.KindReg {
				if rep, ok := copies[o.Reg]; ok {
					*o = rep
					changed = true
				}
			}
		})

		switch {
		case in.Op == ir.Mov:
			dst := in.Dst
			src := in.A
			killReg(dst)
			if !(src.IsReg() && src.Reg == dst) {
				copies[dst] = src
			}
		case in.Op == ir.Load:
			// Store-to-load forwarding: a load from the exact address of
			// the most recent store sees the stored value.
			if val, ok := stored[in.A]; ok {
				*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: val, Pos: in.Pos}
				killReg(in.Dst)
				if !(val.IsReg() && val.Reg == in.Dst) {
					copies[in.Dst] = val
				}
				changed = true
				continue
			}
			key := refExprKey{op: ir.Load, a: in.A}
			if holder, ok := avail[key]; ok && holder != in.Dst {
				*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.RegOp(holder), Pos: in.Pos}
				killReg(in.Dst)
				copies[in.Dst] = ir.RegOp(holder)
				changed = true
				continue
			}
			dst := in.Dst
			killReg(dst)
			if !(key.a.IsReg() && key.a.Reg == dst) {
				avail[key] = dst
			}
		case in.Op == ir.FrameAddr || in.Op == ir.Neg || in.Op == ir.Not || in.Op.IsBinary():
			key := refExprKey{op: in.Op, a: in.A}
			if in.Op.IsBinary() {
				key.b = in.B
			}
			if holder, ok := avail[key]; ok && holder != in.Dst {
				*in = ir.Instr{Op: ir.Mov, Dst: in.Dst, A: ir.RegOp(holder), Pos: in.Pos}
				killReg(in.Dst)
				copies[in.Dst] = ir.RegOp(holder)
				changed = true
				continue
			}
			dst := in.Dst
			killReg(dst)
			// Only record if the expression doesn't depend on its own dst.
			selfRef := key.a.IsReg() && key.a.Reg == dst || key.b.IsReg() && key.b.Reg == dst
			if !selfRef {
				avail[key] = dst
			}
		case in.Op == ir.Store:
			killLoads()
			stored[in.A] = in.B
		case in.Op == ir.Call || in.Op == ir.ICall:
			killLoads()
			if in.HasDst() {
				killReg(in.Dst)
			}
		case in.Op == ir.Alloca:
			killLoads()
			killReg(in.Dst)
		}
	}
	return changed
}

// matchCSEReference runs three LocalCSE rounds on a clone of f and three
// reference rounds on another, adding each side's scans to work and
// refWork. Between rounds both clones go through the same ConstProp,
// Cleanup and DCE, so later rounds see what the pipeline makes of the
// first. Each round must leave identical IR and report the same change.
func matchCSEReference(t *testing.T, name string, f *ir.Func, work, refWork *opt.Work) {
	t.Helper()
	got, want := f.Clone(f.QName), f.Clone(f.QName)
	for round := 0; round < 3; round++ {
		gc, wc := opt.LocalCSEWork(got, work), refLocalCSE(want, refWork)
		if gs, ws := got.String(), want.String(); gc != wc || gs != ws {
			t.Fatalf("%s round %d: changed %v, reference %v\ngot:\n%s\nreference:\n%s\ninput:\n%s",
				name, round, gc, wc, gs, ws, f)
		}
		for _, g := range []*ir.Func{got, want} {
			opt.ConstProp(g)
			opt.Cleanup(g)
			opt.DCE(g, nil)
		}
	}
}

// TestLocalCSEMatchesReference pins LocalCSE to the map-based reference
// it replaced: on clones of every function of the specsuite and of 100
// randprog programs, raw and at several HLO stop points, each of three
// rounds must leave identical IR and report the same change. Over the
// whole corpus its kills must examine at most a tenth of the facts the
// reference's do: indexing facts by register is what makes it cheaper,
// and a return to scanning whole tables shows here as a count.
func TestLocalCSEMatchesReference(t *testing.T) {
	compared := 0
	var work, refWork opt.Work
	for _, sp := range stagedCorpus(t) {
		for _, f := range sp.prog.AllFuncs() {
			matchCSEReference(t, sp.name+" "+f.QName, f, &work, &refWork)
			compared++
		}
	}
	t.Logf("%d functions compared; scans %d, reference %d", compared, work.CSEScans, refWork.CSEScans)
	if 10*work.CSEScans > refWork.CSEScans {
		t.Errorf("LocalCSE's kills examined more than a tenth of the reference's facts: %d of %d",
			work.CSEScans, refWork.CSEScans)
	}
}

// TestLocalCSECornerCases compares LocalCSE with the reference on
// hand-built blocks that reach each way a fact dies, which the corpus
// may not: each must give the same IR and the same change report,
// round by round.
func TestLocalCSECornerCases(t *testing.T) {
	reg, imm := ir.RegOp, ir.ConstOp
	mov := func(d ir.Reg, a ir.Operand) ir.Instr { return ir.Instr{Op: ir.Mov, Dst: d, A: a} }
	add := func(d ir.Reg, a, b ir.Operand) ir.Instr { return ir.Instr{Op: ir.Add, Dst: d, A: a, B: b} }
	load := func(d ir.Reg, a ir.Operand) ir.Instr { return ir.Instr{Op: ir.Load, Dst: d, A: a} }
	store := func(a, v ir.Operand) ir.Instr { return ir.Instr{Op: ir.Store, A: a, B: v} }
	call := func(d ir.Reg) ir.Instr { return ir.Instr{Op: ir.Call, Dst: d, Callee: "m:f"} }
	use := func(a ir.Operand) ir.Instr {
		return ir.Instr{Op: ir.Call, Dst: ir.NoReg, Callee: "$print", Args: []ir.Operand{a}}
	}
	ret := func(a ir.Operand) ir.Instr { return ir.Instr{Op: ir.Ret, A: a} }
	// bump redefines r from itself, which kills r's facts and makes
	// none, so no copy propagation hides a fact that should have died.
	bump := func(r ir.Reg) ir.Instr { return add(r, reg(r), imm(1)) }
	cases := []struct {
		name   string
		blocks [][]ir.Instr
	}{
		{"copy dies with its source", [][]ir.Instr{
			{mov(2, reg(0)), bump(0), add(3, reg(2), imm(1)), use(reg(0)), ret(reg(3))}}},
		{"copy of a copy dies with the first source", [][]ir.Instr{
			{mov(2, reg(0)), mov(3, reg(2)), bump(0), add(4, reg(3), reg(2)), use(reg(0)), ret(reg(4))}}},
		{"copy dies with its destination", [][]ir.Instr{
			{mov(2, reg(0)), bump(2), add(3, reg(2), imm(1)), ret(reg(3))}}},
		{"expression dies with an operand", [][]ir.Instr{
			{add(2, reg(0), reg(1)), bump(0), add(3, reg(0), reg(1)), use(reg(2)), ret(reg(3))}}},
		{"expression dies with its second operand", [][]ir.Instr{
			{add(2, reg(0), reg(1)), bump(1), add(3, reg(0), reg(1)), use(reg(2)), ret(reg(3))}}},
		{"expression dies with its holder", [][]ir.Instr{
			{add(2, reg(0), reg(1)), bump(2), add(3, reg(0), reg(1)), use(reg(2)), ret(reg(3))}}},
		{"expression reading its own destination", [][]ir.Instr{
			{add(2, reg(0), imm(1)), add(0, reg(0), imm(1)), add(3, reg(0), imm(1)), use(reg(2)), ret(reg(3))}}},
		{"repeated operand", [][]ir.Instr{
			{add(2, reg(0), reg(0)), bump(0), add(3, reg(0), reg(0)), use(reg(2)), ret(reg(3))}}},
		{"expression remade after its holder died", [][]ir.Instr{
			{add(2, reg(0), reg(1)), bump(2), add(3, reg(0), reg(1)), bump(2), add(4, reg(0), reg(1)), use(reg(2)), use(reg(3)), ret(reg(4))}}},
		{"load dies with a store", [][]ir.Instr{
			{load(1, reg(0)), store(reg(2), reg(3)), load(4, reg(0)), use(reg(1)), ret(reg(4))}}},
		{"load dies with a call", [][]ir.Instr{
			{load(1, ir.GlobalOp("m:g")), call(2), load(3, ir.GlobalOp("m:g")), use(reg(1)), ret(reg(3))}}},
		{"load dies with its address", [][]ir.Instr{
			{load(1, reg(0)), bump(0), load(2, reg(0)), use(reg(1)), ret(reg(2))}}},
		{"loads of distinct symbols", [][]ir.Instr{
			{load(1, ir.GlobalOp("m:g")), load(2, ir.GlobalOp("m:h")), load(3, ir.GlobalOp("m:g")),
				load(4, ir.FuncOp("m:g")), add(5, reg(1), reg(2)), add(5, reg(5), reg(3)), add(5, reg(5), reg(4)), ret(reg(5))}}},
		{"forwarded store dies with its address", [][]ir.Instr{
			{store(reg(0), reg(1)), bump(0), load(2, reg(0)), ret(reg(2))}}},
		{"forwarded store dies with its value", [][]ir.Instr{
			{store(reg(0), reg(1)), bump(1), load(2, reg(0)), use(reg(1)), ret(reg(2))}}},
		{"forwarded store dies with a call", [][]ir.Instr{
			{store(reg(0), reg(1)), call(3), load(2, reg(0)), ret(reg(2))}}},
		{"forwarded store into its own value register", [][]ir.Instr{
			{store(reg(0), reg(1)), load(1, reg(0)), load(2, reg(0)), add(3, reg(1), reg(2)), ret(reg(3))}}},
		{"facts die at the block end", [][]ir.Instr{
			{add(2, reg(0), reg(1)), mov(3, reg(2)), store(reg(0), reg(1)), {Op: ir.Br, A: reg(0), Then: 1, Else: 2}},
			{add(4, reg(0), reg(1)), add(4, reg(4), reg(3)), load(5, reg(0)), add(4, reg(4), reg(5)), ret(reg(4))},
			{add(4, reg(0), reg(1)), ret(reg(4))}}},
	}
	var work, refWork opt.Work
	for _, c := range cases {
		f := &ir.Func{Name: "t", Module: "m", QName: "m:t", NumParams: 2, NumRegs: 6}
		for i, instrs := range c.blocks {
			f.Blocks = append(f.Blocks, &ir.Block{Index: i, Instrs: instrs})
		}
		matchCSEReference(t, c.name, f, &work, &refWork)
	}
	t.Logf("scans %d, reference %d", work.CSEScans, refWork.CSEScans)
}

// BenchmarkLocalCSE times one LocalCSE over every function of the
// program BenchmarkConstProp uses, raw and after a peak HLO run,
// against the reference implementation on the same input. Inputs are
// cloned outside the timer.
func BenchmarkLocalCSE(b *testing.B) {
	p := corpusProgram{"large/m4-f6", randprog.Generate(1, randprog.Config{
		Modules: 4, Funcs: 6, Stmts: 6, Depth: 2, ExprDepth: 3, BoundedCallDepth: true,
	}), []int64{1, 3, 7}}
	cache := driver.NewCache()
	var input []*ir.Func
	for _, stop := range []int{-1, 0} {
		input = append(input, stageProgram(b, cache, p, stop).AllFuncs()...)
	}
	for _, impl := range []struct {
		name string
		run  func(*ir.Func) bool
	}{{"new", opt.LocalCSE}, {"reference", func(f *ir.Func) bool { return refLocalCSE(f, &opt.Work{}) }}} {
		b.Run(impl.name, func(b *testing.B) {
			work := make([]*ir.Func, len(input))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, f := range input {
					work[j] = f.Clone(f.QName)
				}
				b.StartTimer()
				for _, f := range work {
					impl.run(f)
				}
			}
			b.ReportMetric(float64(len(input)), "funcs/op")
		})
	}
}
