package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/specsuite"
)

// corpusProgram is one program of the scalar-pipeline corpus: its
// sources and the training inputs of its peak build.
type corpusProgram struct {
	name    string
	sources []string
	train   []int64
}

// specPrograms is the 14 specsuite benchmarks.
func specPrograms() []corpusProgram {
	var ps []corpusProgram
	for _, b := range specsuite.All() {
		ps = append(ps, corpusProgram{b.Name, b.Sources, b.Train})
	}
	return ps
}

// randProgram draws one randprog program. fuzz selects FuzzConfig,
// whose function-pointer globals supply symbolic constants and indirect
// calls; otherwise it is the perfbench large-programs production shape,
// with the module and function maxima walking that deck's 4×5 grid.
func randProgram(seed int64, fuzz bool) corpusProgram {
	cfg := randprog.FuzzConfig()
	name := fmt.Sprintf("fuzz/%d", seed)
	if !fuzz {
		cfg = randprog.Config{
			Modules:          1 + int(seed%4),
			Funcs:            2 + int(seed/4%5),
			Stmts:            6,
			Depth:            2,
			ExprDepth:        3,
			BoundedCallDepth: true,
		}
		name = fmt.Sprintf("large/m%d-f%d/%d", cfg.Modules, cfg.Funcs, seed)
	}
	return corpusProgram{name, randprog.Generate(seed, cfg), []int64{seed % 16, 3, 7}}
}

// stageProgram returns p at one stage of its peak build: the raw
// front-end output when stop < 0, otherwise the IR after HLO stopped
// after stop operations (0 runs HLO to the end). The program is fresh,
// so callers may mutate it.
func stageProgram(tb testing.TB, cache *driver.Cache, p corpusProgram, stop int) *ir.Program {
	tb.Helper()
	if stop < 0 {
		prog, err := cache.Frontend(p.sources)
		if err != nil {
			tb.Fatalf("%s: %v", p.name, err)
		}
		return prog
	}
	opts := driver.DefaultOptions(p.train)
	opts.HLO.StopAfter = stop
	opts.Cache = cache
	c, err := driver.Compile(p.sources, opts)
	if err != nil {
		tb.Fatalf("%s stop %d: %v", p.name, stop, err)
	}
	return c.IR
}

// corpusStops are the stages TestConstPropMatchesReference and
// TestOptimizeConvergedStaysConverged draw functions from: raw, mid-HLO
// and post-HLO.
var corpusStops = []int{-1, 2, 8, 0}

// TestConstPropMatchesReference pins the interned 4-byte lattice to
// the latticeVal implementation it replaced: on clones of every
// function of the specsuite and of 100 randprog programs, raw and at
// several HLO stop points, each of three ConstProp+Cleanup rounds must
// leave identical IR and report the same change.
func TestConstPropMatchesReference(t *testing.T) {
	progs := specPrograms()
	for seed := int64(1); seed <= 100; seed++ {
		progs = append(progs, randProgram(seed, seed%2 == 0))
	}
	cache := driver.NewCache()
	compared, changed := 0, 0
	for _, p := range progs {
		for _, stop := range corpusStops {
			for _, f := range stageProgram(t, cache, p, stop).AllFuncs() {
				got, want := f.Clone(f.QName), f.Clone(f.QName)
				for round := 0; round < 3; round++ {
					gc, wc := opt.ConstProp(got), refConstProp(want)
					if gs, ws := got.String(), want.String(); gc != wc || gs != ws {
						t.Fatalf("%s stop %d %s round %d: changed %v, reference %v\ngot:\n%s\nreference:\n%s\ninput:\n%s",
							p.name, stop, f.QName, round, gc, wc, gs, ws, f)
					}
					if gc && round == 0 {
						changed++
					}
					opt.Cleanup(got)
					opt.Cleanup(want)
				}
				compared++
			}
		}
	}
	t.Logf("%d programs, %d functions compared, %d changed by ConstProp", len(progs), compared, changed)
}

// BenchmarkConstProp times one ConstProp over every function of one
// fixed randprog program from the largest large-programs grid cell
// (4 modules × 6 functions), raw and after a peak HLO run, against the
// reference implementation on the same input. Inputs are cloned outside
// the timer.
func BenchmarkConstProp(b *testing.B) {
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
	}{{"new", opt.ConstProp}, {"reference", refConstProp}} {
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
