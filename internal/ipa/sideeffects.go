package ipa

import "repro/internal/ir"

// PureFuncs computes the set of provably pure, provably terminating
// functions: no stores, no allocas, no indirect calls, no runtime calls,
// an acyclic CFG, no participation in call-graph cycles, and only pure
// callees. A dead call to such a function can be deleted outright — this
// is how the paper's interprocedural analysis eliminates the calls into
// 072.sc's do-nothing curses library before inlining even starts.
func PureFuncs(g *Graph) map[string]bool {
	pure := make(map[string]bool)
	// locallyClean: no effectful instructions and acyclic CFG.
	locallyClean := make(map[*ir.Func]bool)
	g.Prog.Funcs(func(f *ir.Func) bool {
		locallyClean[f] = cleanBody(f) && acyclicCFG(f) && !g.InCycle(f)
		return true
	})
	// Iterate to a fixpoint (start optimistic over the clean set, then
	// knock out functions whose callees are not pure).
	cand := make(map[*ir.Func]bool)
	for f, ok := range locallyClean {
		if ok {
			cand[f] = true
		}
	}
	for {
		changed := false
		for f := range cand {
			for _, e := range g.CalleesOf[f] {
				if e.Callee == nil || !cand[e.Callee] {
					delete(cand, f)
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	for f := range cand {
		pure[f.QName] = true
	}
	return pure
}

// cleanBody reports whether f contains no instruction with side effects
// other than direct calls (which the fixpoint checks separately).
func cleanBody(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.Store, ir.Alloca, ir.ICall:
				return false
			}
		}
	}
	return true
}

// acyclicCFG reports whether the CFG has no back edges (every loop-free
// function trivially terminates if its callees do).
func acyclicCFG(f *ir.Func) bool {
	const (
		unvisited = 0
		active    = 1
		done      = 2
	)
	state := make([]uint8, len(f.Blocks))
	type frame struct {
		b     int
		succs [2]int
		n, i  int
	}
	var stack []frame
	push := func(b int) {
		state[b] = active
		fr := frame{b: b}
		fr.succs, fr.n = f.Blocks[b].Succs()
		stack = append(stack, fr)
	}
	push(0)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.i < fr.n {
			s := fr.succs[fr.i]
			fr.i++
			switch state[s] {
			case active:
				return false
			case unvisited:
				push(s)
			}
			continue
		}
		state[fr.b] = done
		stack = stack[:len(stack)-1]
	}
	return true
}
