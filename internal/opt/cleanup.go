package opt

import "repro/internal/ir"

// Cleanup normalizes the CFG: removes unreachable blocks, threads jumps
// through trivial blocks, merges single-predecessor chains, and
// renumbers. It reports whether anything changed.
func Cleanup(f *ir.Func) bool {
	changed := false
	for {
		c := threadJumps(f)
		c = mergeChains(f) || c
		c = dropUnreachable(f) || c
		if !c {
			if changed {
				// Merging chains and dropping blocks change the
				// instruction count.
				f.InvalidateSize()
			}
			return changed
		}
		changed = true
	}
}

// threadJumps redirects edges that target a block consisting only of a
// jump, so the trivial block becomes unreachable.
func threadJumps(f *ir.Func) bool {
	// finalTarget follows chains of trivial jump blocks (with cycle
	// protection) to the ultimate destination.
	finalTarget := func(start int) int {
		seen := map[int]bool{}
		cur := start
		for {
			b := f.Blocks[cur]
			if len(b.Instrs) != 1 || b.Instrs[0].Op != ir.Jmp || seen[cur] {
				return cur
			}
			seen[cur] = true
			cur = b.Instrs[0].Then
		}
	}
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.Jmp:
			if nt := finalTarget(t.Then); nt != t.Then {
				t.Then = nt
				changed = true
			}
		case ir.Br:
			if nt := finalTarget(t.Then); nt != t.Then {
				t.Then = nt
				changed = true
			}
			if ne := finalTarget(t.Else); ne != t.Else {
				t.Else = ne
				changed = true
			}
			if t.Then == t.Else {
				*t = ir.Instr{Op: ir.Jmp, Then: t.Then, Pos: t.Pos}
				changed = true
			}
		}
	}
	return changed
}

// mergeChains merges a block into its unique successor when that
// successor has no other predecessors (straight-line concatenation).
//
// Predecessor counts are taken once: a merge leaves every other count
// as it was. succ's successors trade succ for b as a predecessor, and b
// was a predecessor of none of them, because its only successor was
// succ (a succ that is its own successor has two predecessors, so it is
// never merged). Only succ, now a stub, loses its one predecessor.
func mergeChains(f *ir.Func) bool {
	npred := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		ss, n := b.Succs()
		for _, s := range ss[:n] {
			npred[s]++
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for {
			t := b.Term()
			if t == nil || t.Op != ir.Jmp {
				break
			}
			s := t.Then
			if s == b.Index || s == 0 || npred[s] != 1 {
				break
			}
			succ := f.Blocks[s]
			if succ == b {
				break
			}
			// Splice succ's instructions over our jump.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], succ.Instrs...)
			// succ becomes an unreachable stub.
			succ.Instrs = []ir.Instr{{Op: ir.Ret, A: ir.ConstOp(0)}}
			npred[s] = 0
			changed = true
		}
	}
	return changed
}

// dropUnreachable removes blocks not reachable from the entry and
// renumbers the remainder.
func dropUnreachable(f *ir.Func) bool {
	reach := make([]bool, len(f.Blocks))
	var stack []int
	reach[0] = true
	stack = append(stack, 0)
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ss, n := f.Blocks[bi].Succs()
		for _, s := range ss[:n] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	all := true
	for _, r := range reach {
		all = all && r
	}
	if all {
		return false
	}
	remap := make([]int, len(f.Blocks))
	var kept []*ir.Block
	for i, b := range f.Blocks {
		if reach[i] {
			remap[i] = len(kept)
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	for _, b := range kept {
		if t := b.Term(); t != nil {
			switch t.Op {
			case ir.Jmp:
				t.Then = remap[t.Then]
			case ir.Br:
				t.Then = remap[t.Then]
				t.Else = remap[t.Else]
			}
		}
	}
	f.Blocks = kept
	f.Renumber(nil)
	return true
}
