package opt

import (
	"sync"

	"repro/internal/ir"
)

// cleanState is Cleanup's pooled scratch, indexed by block: the marks
// of threadJumps' chain walks, mergeChains' predecessor counts, and
// dropUnreachable's reach flags, DFS stack and renumbering. Each user
// sizes and resets what it reads, so a call allocates nothing once the
// pool has grown to the function.
type cleanState struct {
	mark  []int32
	npred []int
	reach []bool
	stack []int
	remap []int
}

var cleanPool = sync.Pool{New: func() any { return new(cleanState) }}

// grow returns s resized to n elements, reusing its array when it can.
// The elements' values are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Cleanup normalizes the CFG: removes unreachable blocks, threads jumps
// through trivial blocks, merges single-predecessor chains, and
// renumbers. It reports whether anything changed.
func Cleanup(f *ir.Func) bool {
	st := cleanPool.Get().(*cleanState)
	defer cleanPool.Put(st)
	changed := false
	for {
		c := st.threadJumps(f)
		c = st.mergeChains(f) || c
		c = st.dropUnreachable(f) || c
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
func (st *cleanState) threadJumps(f *ir.Func) bool {
	// finalTarget follows chains of trivial jump blocks (with cycle
	// protection) to the ultimate destination. Walk w marks the blocks
	// it passes with w, so no walk sees another's marks.
	mark := grow(st.mark, len(f.Blocks))
	clear(mark)
	st.mark = mark
	var walk int32
	finalTarget := func(start int) int {
		walk++
		cur := start
		for {
			b := f.Blocks[cur]
			if len(b.Instrs) != 1 || b.Instrs[0].Op != ir.Jmp || mark[cur] == walk {
				return cur
			}
			mark[cur] = walk
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
// Since the counts of the blocks b goes on to absorb do not change, b's
// whole chain is known before the first splice, and b grows once to
// the chain's length instead of once per splice.
func (st *cleanState) mergeChains(f *ir.Func) bool {
	npred := grow(st.npred, len(f.Blocks))
	clear(npred)
	st.npred = npred
	for _, b := range f.Blocks {
		ss, n := b.Succs()
		for _, s := range ss[:n] {
			npred[s]++
		}
	}
	changed := false
	for _, b := range f.Blocks {
		first := st.absorbable(f, b, b)
		if first == 0 {
			continue
		}
		need := len(b.Instrs)
		for s := first; s > 0; s = st.absorbable(f, b, f.Blocks[s]) {
			need += len(f.Blocks[s].Instrs) - 1
		}
		if cap(b.Instrs) < need {
			b.Instrs = append(make([]ir.Instr, 0, need), b.Instrs...)
		}
		for s := first; s > 0; s = st.absorbable(f, b, b) {
			succ := f.Blocks[s]
			// Splice succ's instructions over our jump.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], succ.Instrs...)
			// succ becomes an unreachable stub, in its own array: no
			// other block shares it, and b now holds copies of its
			// instructions.
			succ.Instrs = append(succ.Instrs[:0], ir.Instr{Op: ir.Ret, A: ir.ConstOp(0)})
			npred[s] = 0
			changed = true
		}
	}
	return changed
}

// absorbable returns the index of the block b can absorb next when
// cur's jump ends b's chain so far (cur is b before the first splice),
// or 0 if there is none: the jump's target must have cur as its only
// predecessor and be neither b nor the entry.
func (st *cleanState) absorbable(f *ir.Func, b, cur *ir.Block) int {
	t := cur.Term()
	if t == nil || t.Op != ir.Jmp {
		return 0
	}
	s := t.Then
	if s == b.Index || s == 0 || st.npred[s] != 1 || f.Blocks[s] == b {
		return 0
	}
	return s
}

// dropUnreachable removes blocks not reachable from the entry and
// renumbers the remainder, compacting f.Blocks in place.
func (st *cleanState) dropUnreachable(f *ir.Func) bool {
	reach := grow(st.reach, len(f.Blocks))
	clear(reach)
	st.reach = reach
	stack := append(st.stack[:0], 0)
	defer func() { st.stack = stack }()
	reach[0] = true
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
	remap := grow(st.remap, len(f.Blocks))
	st.remap = remap
	kept := f.Blocks[:0]
	for i, b := range f.Blocks {
		if reach[i] {
			remap[i] = len(kept)
			kept = append(kept, b)
		} else {
			remap[i] = -1
		}
	}
	clear(f.Blocks[len(kept):]) // drop the dead blocks' pointers
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
