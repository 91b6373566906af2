package opt

import "repro/internal/ir"

// maxRounds bounds the fixpoint iteration of the pass pipeline; in
// practice two or three rounds reach the fixpoint.
const maxRounds = 6

// Optimize runs the scalar pipeline on one function to a bounded
// fixpoint: constant propagation and branch folding, CFG cleanup, local
// value numbering, and dead-code elimination. pure may be nil.
// It reports whether it converged: some round changed nothing, so a
// further Optimize under the same purity facts would change nothing
// either. A run whose last permitted round still changed something
// reports false.
func Optimize(f *ir.Func, pure Purity) bool {
	for round := 0; round < maxRounds; round++ {
		changed := ConstProp(f)
		changed = Cleanup(f) || changed
		changed = LocalCSE(f) || changed
		changed = DCE(f, pure) || changed
		changed = Cleanup(f) || changed
		if !changed {
			return true
		}
	}
	return false
}

// OptimizeProgram runs Optimize over every function.
func OptimizeProgram(p *ir.Program, pure Purity) {
	p.Funcs(func(f *ir.Func) bool {
		Optimize(f, pure)
		return true
	})
}
