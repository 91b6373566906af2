// Package specsuite holds the synthetic stand-ins for the 14 SPECint92
// and SPECint95 programs of the paper's evaluation, written in MiniC.
// Each benchmark reproduces the *call-structure pathology* its namesake
// is known for — the property that made inlining or cloning profitable
// on the original — at a scale a unit-test-speed simulator can run:
//
//	008.espresso  bitset cube operations: tiny leaf routines called in
//	              deeply nested covering loops
//	022.li/130.li recursive Lisp evaluator: cross-module cell accessors
//	              and a tag-dispatch eval where cloning shines
//	023.eqntott   truth-table sort through a function-pointer
//	              comparator: the staged indirect→direct showcase
//	026/129.compress  LZW-style coder with hot byte-I/O accessors
//	072.sc        spreadsheet evaluator linked against a do-nothing
//	              curses library (interprocedural dead-call deletion)
//	085/126.gcc   expression compiler + stack VM: biggest program, many
//	              helper layers
//	099.go        board evaluator: neighbor/liberty helpers in flood
//	              fills
//	124.m88ksim   CPU simulator: ALU helper called with constant opcodes
//	              (clone groups par excellence)
//	132.ijpeg     integer 8×8 transform with per-site constant
//	              quantization factors
//	134.perl      regex matcher with recursive match/matchstar
//	147.vortex    object store with cross-module field accessors
//
// Train inputs are small (the paper's training data sets); ref inputs
// are larger. Outputs are checksums printed via the runtime, so every
// configuration (interpreter, simulator, any HLO setting) must agree.
package specsuite

import (
	"fmt"
	"sync"
)

// Benchmark is one synthetic SPEC program.
type Benchmark struct {
	Name    string   // e.g. "022.li"
	Suite   string   // "SPECint92" or "SPECint95"
	Sources []string // MiniC modules
	Train   []int64  // training input vector (profile gathering)
	Ref     []int64  // reference input vector (timed run)
	// RefVecs, when set, splits the reference workload into independent
	// input vectors, each timed from a cold machine; the experiment
	// harness sums their cycles over one build. SPEC's m88ksim ran a
	// deck of test vectors. The split stays because the rendered figures
	// (testdata/policy-golden/figures.txt) rest on six cold runs, not
	// one monolithic 900-iteration run. Ref stays valid for callers that
	// want one timed run.
	RefVecs [][]int64
}

// RefVectors returns the reference workload as a list of independent
// input vectors: RefVecs when the benchmark defines a split, else the
// single monolithic Ref vector.
func (b *Benchmark) RefVectors() [][]int64 {
	if len(b.RefVecs) > 0 {
		return b.RefVecs
	}
	return [][]int64{b.Ref}
}

// suite builds the benchmark set once: the source generators assemble
// sizeable MiniC programs, and the experiment harness asks for the
// suite from many goroutines. Callers treat the shared *Benchmark
// values as read-only.
var suite struct {
	once sync.Once
	all  []*Benchmark
}

// All returns the benchmarks in the paper's Figure 5 order. The
// returned slice is fresh but the *Benchmark values are shared:
// callers must not mutate them.
func All() []*Benchmark {
	suite.once.Do(func() { suite.all = build() })
	return append([]*Benchmark(nil), suite.all...)
}

func build() []*Benchmark {
	return []*Benchmark{
		{Name: "008.espresso", Suite: "SPECint92", Sources: espressoSources(), Train: []int64{6, 13}, Ref: []int64{14, 13}},
		{Name: "022.li", Suite: "SPECint92", Sources: liSources(), Train: []int64{40, 5}, Ref: []int64{260, 5}},
		{Name: "023.eqntott", Suite: "SPECint92", Sources: eqntottSources(), Train: []int64{48, 9}, Ref: []int64{240, 9}},
		{Name: "026.compress", Suite: "SPECint92", Sources: compressSources(), Train: []int64{600, 7}, Ref: []int64{4000, 7}},
		{Name: "072.sc", Suite: "SPECint92", Sources: scSources(), Train: []int64{8, 11}, Ref: []int64{36, 11}},
		{Name: "085.gcc", Suite: "SPECint92", Sources: gccSources(), Train: []int64{30, 3}, Ref: []int64{170, 3}},
		{Name: "099.go", Suite: "SPECint95", Sources: goSources(), Train: []int64{10, 17}, Ref: []int64{60, 17}},
		{Name: "124.m88ksim", Suite: "SPECint95", Sources: m88ksimSources(), Train: []int64{120, 19}, Ref: []int64{900, 19},
			// The 900-iteration ref deck split into six 150-iteration
			// vectors. They are one vector six times, so runs 2–6 of a
			// build are simulation-memo hits.
			RefVecs: [][]int64{{150, 19}, {150, 19}, {150, 19}, {150, 19}, {150, 19}, {150, 19}}},
		{Name: "126.gcc", Suite: "SPECint95", Sources: gccSources(), Train: []int64{40, 23}, Ref: []int64{260, 23}},
		{Name: "129.compress", Suite: "SPECint95", Sources: compressSources(), Train: []int64{800, 29}, Ref: []int64{6000, 29}},
		{Name: "130.li", Suite: "SPECint95", Sources: liSources(), Train: []int64{50, 31}, Ref: []int64{340, 31}},
		{Name: "132.ijpeg", Suite: "SPECint95", Sources: ijpegSources(), Train: []int64{12, 37}, Ref: []int64{90, 37}},
		{Name: "134.perl", Suite: "SPECint95", Sources: perlSources(), Train: []int64{30, 41}, Ref: []int64{200, 41}},
		{Name: "147.vortex", Suite: "SPECint95", Sources: vortexSources(), Train: []int64{60, 43}, Ref: []int64{420, 43}},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("specsuite: unknown benchmark %q", name)
}

// Names lists all benchmark names in order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// Table1Names returns the benchmarks of the paper's Table 1.
func Table1Names() []string {
	return []string{
		"008.espresso", "022.li", "072.sc", "085.gcc",
		"099.go", "124.m88ksim", "147.vortex",
	}
}

// Figure7Names returns the SPEC95-like subset simulated in Figure 7.
func Figure7Names() []string {
	return []string{
		"099.go", "124.m88ksim", "130.li", "132.ijpeg", "134.perl", "147.vortex",
	}
}
