package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/testutil"
)

// TestReoptimizeFinishesUnconvergedFunction pins the dirty set's round
// limit rule: a function whose opt.Optimize stopped at the round limit
// stays marked, so reoptimize keeps working on it even though no
// mutation touches it. main below needs one Optimize round per store
// the next branch depends on, more than the input and dead-call stages
// give it, and holds no call HLO could transform; after HLO it must sit
// at Optimize's fixpoint.
func TestReoptimizeFinishesUnconvergedFunction(t *testing.T) {
	var src strings.Builder
	src.WriteString("module main;\nvar g int;\nfunc main() int {\n\tg = 0;\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&src, "\tif (g == %d) { g = %d; } else { g = 100; }\n", i, i+1)
	}
	src.WriteString("\treturn g;\n}\n")
	p := testutil.MustBuild(t, src.String())
	probe := p.Func("main:main").Clone("main:main")
	if opt.Optimize(probe, nil) || opt.Optimize(probe, nil) {
		t.Fatal("main converges within two Optimize calls: the input stages alone finish it")
	}

	core.Run(p, core.WholeProgram(), core.DefaultOptions())
	f := p.Func("main:main")
	before := f.String()
	if !opt.Optimize(f, nil) || f.String() != before {
		t.Errorf("HLO left main short of Optimize's fixpoint:\n%s\none more Optimize gives:\n%s", before, f)
	}
}
