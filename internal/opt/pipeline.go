package opt

import "repro/internal/ir"

// maxRounds bounds the fixpoint iteration of the pass pipeline; in
// practice two or three rounds reach the fixpoint.
const maxRounds = 6

// Work counts what the scalar pipeline did. The counts are exact and
// repeat run to run, so they show a change in work that host noise
// would hide in a timing.
type Work struct {
	Rounds   int64 // pipeline rounds Optimize ran
	CPVisits int64 // ConstProp block processings
	CPCells  int64 // register cells ConstProp met on CFG edges, first-reach copies excluded
	CSEScans int64 // facts LocalCSE's kills examined
}

// Optimize runs the scalar pipeline on one function to a bounded
// fixpoint: constant propagation and branch folding, CFG cleanup, local
// value numbering, and dead-code elimination. pure may be nil.
// It reports whether it converged: some round changed nothing, so a
// further Optimize under the same purity facts would change nothing
// either. A run whose last permitted round still changed something
// reports false. When w is not nil, Optimize adds its work counts to it.
func Optimize(f *ir.Func, pure Purity, w *Work) bool {
	for round := 0; round < maxRounds; round++ {
		if w != nil {
			w.Rounds++
		}
		changed := constProp(f, w)
		changed = Cleanup(f) || changed
		changed = localCSE(f, w) || changed
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
		Optimize(f, pure, nil)
		return true
	})
}
