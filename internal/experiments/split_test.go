package experiments_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/specsuite"
)

// TestRefDeckSplitTotals pins m88ksim's split reference deck: the
// harness builds each (benchmark, configuration) cell once and sums its
// cycles over the deck's vectors, each simulated from a fresh machine.
// That sum must be byte-identical to one compile per vector, each run
// on its own slice. Any state leaking between runs, or any compile
// nondeterminism across builds, breaks the equality.
func TestRefDeckSplitTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the m88ksim ref deck twice")
	}
	b, err := specsuite.ByName("124.m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	vecs := b.RefVectors()
	if len(vecs) < 2 {
		t.Fatalf("m88ksim ref deck not split: %d vector(s)", len(vecs))
	}
	var iters int64
	for _, v := range vecs {
		iters += v[0]
	}
	if iters != b.Ref[0] {
		t.Fatalf("deck covers %d iterations, monolithic ref ran %d", iters, b.Ref[0])
	}

	cache := driver.NewCache()
	opts := driver.Options{CrossModule: true, HLO: core.DefaultOptions(), Cache: cache}

	// Harness behaviour: one compile, the deck run sequentially.
	c, err := driver.Compile(b.Sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	var serial int64
	for _, v := range vecs {
		st, err := c.Run(opts, v)
		if err != nil {
			t.Fatal(err)
		}
		serial += st.Cycles
	}

	// One compile per vector (only the frontend is memoized), each run
	// on its own slice.
	var split int64
	for _, v := range vecs {
		cv, err := driver.Compile(b.Sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cv.Run(opts, v)
		if err != nil {
			t.Fatal(err)
		}
		split += st.Cycles
	}
	if split != serial {
		t.Fatalf("split deck total %d cycles != serial deck total %d", split, serial)
	}
}

// TestRefVectorsDefault: benchmarks without a split deck present their
// monolithic ref vector unchanged.
func TestRefVectorsDefault(t *testing.T) {
	b, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	vecs := b.RefVectors()
	if len(vecs) != 1 || vecs[0][0] != b.Ref[0] || vecs[0][1] != b.Ref[1] {
		t.Fatalf("RefVectors() = %v, want [%v]", vecs, b.Ref)
	}
}
