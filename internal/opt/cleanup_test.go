package opt

import (
	"testing"

	"repro/internal/ir"
)

// buildFunc assembles a one-off function from blocks for CFG surgery
// tests.
func buildFunc(numRegs int32, blocks ...[]ir.Instr) *ir.Func {
	f := &ir.Func{Name: "t", Module: "m", QName: "m:t", NumRegs: numRegs}
	for i, instrs := range blocks {
		f.Blocks = append(f.Blocks, &ir.Block{Index: i, Instrs: instrs})
	}
	return f
}

func TestThreadJumpsCollapsesChains(t *testing.T) {
	// 0 -> 1 -> 2 -> ret, where 1 and 2 are trivial jumps.
	f := buildFunc(1,
		[]ir.Instr{{Op: ir.Jmp, Then: 1}},
		[]ir.Instr{{Op: ir.Jmp, Then: 2}},
		[]ir.Instr{{Op: ir.Jmp, Then: 3}},
		[]ir.Instr{{Op: ir.Ret, A: ir.ConstOp(0)}},
	)
	if !Cleanup(f) {
		t.Fatal("no change reported")
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1:\n%s", len(f.Blocks), f)
	}
	if f.Blocks[0].Instrs[len(f.Blocks[0].Instrs)-1].Op != ir.Ret {
		t.Errorf("entry does not end in ret")
	}
}

func TestThreadJumpsSurvivesTrivialSelfLoop(t *testing.T) {
	// An (unreachable-in-practice) self loop must not hang the threader.
	f := buildFunc(1,
		[]ir.Instr{{Op: ir.Jmp, Then: 1}},
		[]ir.Instr{{Op: ir.Jmp, Then: 1}}, // jumps to itself
	)
	Cleanup(f) // must terminate
}

func TestDegenerateBrBecomesJmp(t *testing.T) {
	f := buildFunc(1,
		[]ir.Instr{
			{Op: ir.Mov, Dst: 0, A: ir.ConstOp(1)},
			{Op: ir.Br, A: ir.RegOp(0), Then: 1, Else: 1},
		},
		[]ir.Instr{{Op: ir.Ret, A: ir.RegOp(0)}},
	)
	Cleanup(f)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Br {
				t.Errorf("degenerate br survived:\n%s", f)
			}
		}
	}
}

func TestMergeChainsKeepsDiamonds(t *testing.T) {
	// A diamond must not be merged into one block.
	f := buildFunc(2,
		[]ir.Instr{{Op: ir.Br, A: ir.RegOp(0), Then: 1, Else: 2}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(1)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(2)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{{Op: ir.Ret, A: ir.RegOp(1)}},
	)
	Cleanup(f)
	if len(f.Blocks) < 3 {
		t.Errorf("diamond incorrectly merged to %d blocks:\n%s", len(f.Blocks), f)
	}
}

func TestMergeChainsFoldsThreeBlockChain(t *testing.T) {
	// 0 -> 1 -> 2, each with work of its own: one call splices 1 and
	// then 2 into 0, since merging 1 leaves 2 with its one predecessor.
	f := buildFunc(2,
		[]ir.Instr{{Op: ir.Mov, Dst: 0, A: ir.ConstOp(1)}, {Op: ir.Jmp, Then: 1}},
		[]ir.Instr{{Op: ir.Add, Dst: 1, A: ir.RegOp(0), B: ir.ConstOp(2)}, {Op: ir.Jmp, Then: 2}},
		[]ir.Instr{{Op: ir.Ret, A: ir.RegOp(1)}},
	)
	if !mergeChains(f) {
		t.Fatal("no change reported")
	}
	if got := f.Blocks[0].Instrs; len(got) != 3 || got[1].Op != ir.Add || got[2].Op != ir.Ret {
		t.Errorf("one mergeChains did not fold the chain into block 0:\n%s", f)
	}
	Cleanup(f)
	if len(f.Blocks) != 1 {
		t.Errorf("got %d blocks, want 1:\n%s", len(f.Blocks), f)
	}
}

func TestMergeChainsKeepsLoopBackToAbsorber(t *testing.T) {
	// 1 absorbs 2, its only-predecessor successor, and 2 jumps back to
	// 1: the result is 1 looping to itself, not 1 merged into itself.
	f := buildFunc(2,
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(0)}, {Op: ir.Jmp, Then: 1}},
		[]ir.Instr{{Op: ir.Add, Dst: 1, A: ir.RegOp(1), B: ir.ConstOp(1)}, {Op: ir.Jmp, Then: 2}},
		[]ir.Instr{{Op: ir.Store, A: ir.GlobalOp("g"), B: ir.RegOp(1)}, {Op: ir.Jmp, Then: 1}},
	)
	if !mergeChains(f) {
		t.Fatal("no change reported")
	}
	Cleanup(f)
	if len(f.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2:\n%s", len(f.Blocks), f)
	}
	loop := f.Blocks[1].Instrs
	if len(loop) != 3 || loop[0].Op != ir.Add || loop[1].Op != ir.Store || loop[2].Op != ir.Jmp || loop[2].Then != 1 {
		t.Errorf("block 1 is not the merged self-loop:\n%s", f)
	}
}

func TestDropUnreachableRemapsTargets(t *testing.T) {
	f := buildFunc(1,
		[]ir.Instr{{Op: ir.Jmp, Then: 2}},
		[]ir.Instr{{Op: ir.Ret, A: ir.ConstOp(99)}}, // unreachable
		[]ir.Instr{{Op: ir.Br, A: ir.RegOp(0), Then: 3, Else: 4}},
		[]ir.Instr{{Op: ir.Ret, A: ir.ConstOp(1)}},
		[]ir.Instr{{Op: ir.Ret, A: ir.ConstOp(2)}},
	)
	Cleanup(f)
	for _, b := range f.Blocks {
		if b.Term().Op == ir.Ret && b.Term().A.IsConst() && b.Term().A.Val == 99 {
			t.Errorf("unreachable block survived")
		}
		ss, n := b.Succs()
		for _, s := range ss[:n] {
			if s < 0 || s >= len(f.Blocks) {
				t.Fatalf("dangling successor %d after remap:\n%s", s, f)
			}
		}
	}
}

func TestConstPropFoldsAcrossDiamond(t *testing.T) {
	// Both arms assign the same constant: the join sees a constant.
	f := buildFunc(3,
		[]ir.Instr{{Op: ir.Br, A: ir.RegOp(0), Then: 1, Else: 2}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(5)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(5)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{
			{Op: ir.Add, Dst: 2, A: ir.RegOp(1), B: ir.ConstOp(1)},
			{Op: ir.Ret, A: ir.RegOp(2)},
		},
	)
	f.NumParams = 1
	ConstProp(f)
	last := f.Blocks[3].Instrs[0]
	if last.Op != ir.Mov || !last.A.IsConst() || last.A.Val != 6 {
		t.Errorf("join constant not folded: %s", last.String())
	}

	// Differing constants: must NOT fold.
	g := buildFunc(3,
		[]ir.Instr{{Op: ir.Br, A: ir.RegOp(0), Then: 1, Else: 2}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(5)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{{Op: ir.Mov, Dst: 1, A: ir.ConstOp(7)}, {Op: ir.Jmp, Then: 3}},
		[]ir.Instr{
			{Op: ir.Add, Dst: 2, A: ir.RegOp(1), B: ir.ConstOp(1)},
			{Op: ir.Ret, A: ir.RegOp(2)},
		},
	)
	g.NumParams = 1
	ConstProp(g)
	if in := g.Blocks[3].Instrs[0]; in.Op != ir.Add || in.A.Kind != ir.KindReg {
		t.Errorf("meet over differing constants wrongly folded: %s", in.String())
	}
}

func TestConstPropLoopFixpoint(t *testing.T) {
	// r1 starts 0 and is incremented in a loop: must become varying, not
	// stay at its initial constant.
	f := buildFunc(3,
		[]ir.Instr{
			{Op: ir.Mov, Dst: 1, A: ir.ConstOp(0)},
			{Op: ir.Jmp, Then: 1},
		},
		[]ir.Instr{
			{Op: ir.Add, Dst: 1, A: ir.RegOp(1), B: ir.ConstOp(1)},
			{Op: ir.CmpLT, Dst: 2, A: ir.RegOp(1), B: ir.ConstOp(10)},
			{Op: ir.Br, A: ir.RegOp(2), Then: 1, Else: 2},
		},
		[]ir.Instr{{Op: ir.Ret, A: ir.RegOp(1)}},
	)
	ConstProp(f)
	// The loop's add must still read a register, not a constant.
	if in := f.Blocks[1].Instrs[0]; in.A.Kind != ir.KindReg {
		t.Errorf("loop-carried value wrongly treated as constant: %s", in.String())
	}
	// And the branch must not have been folded.
	if f.Blocks[1].Term().Op != ir.Br {
		t.Errorf("loop exit branch wrongly folded")
	}
}
