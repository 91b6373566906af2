package opt_test

import (
	"fmt"
	"sync"
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

// corpusStops are the stages the reference tests and
// TestOptimizeConvergedStaysConverged draw functions from: raw, mid-HLO
// and post-HLO.
var corpusStops = []int{-1, 2, 8, 0}

// stagedProgram is one corpus program at one stage of its peak build.
type stagedProgram struct {
	name string // program and stage
	prog *ir.Program
}

var (
	stagedOnce sync.Once
	staged     []stagedProgram
)

// stagedCorpus returns the reference tests' corpus, the specsuite and
// 100 randprog programs, at every stage in corpusStops. It is built
// once per test binary and shared, so callers must not mutate it: they
// optimize clones of its functions.
func stagedCorpus(tb testing.TB) []stagedProgram {
	stagedOnce.Do(func() {
		progs := specPrograms()
		for seed := int64(1); seed <= 100; seed++ {
			progs = append(progs, randProgram(seed, seed%2 == 0))
		}
		cache := driver.NewCache()
		for _, p := range progs {
			for _, stop := range corpusStops {
				staged = append(staged, stagedProgram{fmt.Sprintf("%s stop %d", p.name, stop), stageProgram(tb, cache, p, stop)})
			}
		}
	})
	if len(staged) == 0 {
		tb.Fatal("the staged corpus failed to build")
	}
	return staged
}

// matchReference runs three ConstProp+Cleanup rounds on a clone of f
// and three reference rounds on another, adding each side's work to
// work and refWork. Each round must leave identical IR and report the
// same change; matchReference reports whether ConstProp's first round
// changed f.
func matchReference(t *testing.T, name string, f *ir.Func, work, refWork *opt.Work) bool {
	t.Helper()
	got, want := f.Clone(f.QName), f.Clone(f.QName)
	first := false
	for round := 0; round < 3; round++ {
		gc, wc := opt.ConstPropWork(got, work), refConstProp(want, refWork)
		if gs, ws := got.String(), want.String(); gc != wc || gs != ws {
			t.Fatalf("%s round %d: changed %v, reference %v\ngot:\n%s\nreference:\n%s\ninput:\n%s",
				name, round, gc, wc, gs, ws, f)
		}
		if round == 0 {
			first = gc
		}
		opt.Cleanup(got)
		opt.Cleanup(want)
	}
	return first
}

// TestConstPropMatchesReference pins ConstProp to the dense LIFO
// latticeVal implementation it replaced: on clones of every function
// of the specsuite and of 100 randprog programs, raw and at several HLO
// stop points, each of three ConstProp+Cleanup rounds must leave
// identical IR and report the same change. Over the whole corpus,
// ConstProp's block visits and met cells must each be at most half the
// reference's: reverse postorder and delta merges are what make it
// cheaper, and a regression to either shows here as a count.
func TestConstPropMatchesReference(t *testing.T) {
	compared, changed := 0, 0
	var work, refWork opt.Work
	for _, sp := range stagedCorpus(t) {
		for _, f := range sp.prog.AllFuncs() {
			if matchReference(t, sp.name+" "+f.QName, f, &work, &refWork) {
				changed++
			}
			compared++
		}
	}
	t.Logf("%d functions compared, %d changed by ConstProp", compared, changed)
	t.Logf("block visits %d, reference %d; cells met %d, reference %d",
		work.CPVisits, refWork.CPVisits, work.CPCells, refWork.CPCells)
	if 2*work.CPVisits > refWork.CPVisits || 2*work.CPCells > refWork.CPCells {
		t.Errorf("ConstProp did more than half the reference's work: visits %d of %d, cells %d of %d",
			work.CPVisits, refWork.CPVisits, work.CPCells, refWork.CPCells)
	}
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
	}{{"new", opt.ConstProp}, {"reference", func(f *ir.Func) bool { return refConstProp(f, nil) }}} {
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

// TestConstPropCornerCases compares ConstProp with the reference on
// hand-built CFGs that the corpus may not cover: each must give the
// same IR and the same change report, round by round.
func TestConstPropCornerCases(t *testing.T) {
	reg, imm := ir.RegOp, ir.ConstOp
	jmp := func(to int) ir.Instr { return ir.Instr{Op: ir.Jmp, Then: to} }
	br := func(c ir.Reg, then, els int) ir.Instr {
		return ir.Instr{Op: ir.Br, A: reg(c), Then: then, Else: els}
	}
	mov := func(d ir.Reg, a ir.Operand) ir.Instr { return ir.Instr{Op: ir.Mov, Dst: d, A: a} }
	bin := func(op ir.Op, d ir.Reg, a, b ir.Operand) ir.Instr {
		return ir.Instr{Op: op, Dst: d, A: a, B: b}
	}
	ret := func(a ir.Operand) ir.Instr { return ir.Instr{Op: ir.Ret, A: a} }
	cases := []struct {
		name   string
		params int
		regs   int32
		blocks [][]ir.Instr
	}{
		{
			// b1 is its own successor and redefines r1 from r1: its
			// self-merge lowers r1 to bottom, which only b1's own
			// definitions carry on to b2.
			name: "self-loop redefining what it reads", params: 1, regs: 5,
			blocks: [][]ir.Instr{
				{mov(1, imm(0)), mov(2, imm(5)), jmp(1)},
				{bin(ir.Add, 1, reg(1), imm(1)), mov(3, reg(2)), bin(ir.CmpLT, 4, reg(1), imm(10)), br(4, 1, 2)},
				{bin(ir.Add, 3, reg(3), reg(1)), ret(reg(3))},
			},
		},
		{
			// The loop {b1, b2} has two entries, from b0 to each.
			name: "irreducible loop with two entries", params: 1, regs: 5,
			blocks: [][]ir.Instr{
				{mov(1, imm(1)), mov(2, imm(0)), mov(4, imm(9)), br(0, 1, 2)},
				{bin(ir.Add, 2, reg(1), imm(1)), jmp(2)},
				{mov(1, reg(2)), bin(ir.CmpLT, 3, reg(2), reg(4)), br(3, 1, 3)},
				{bin(ir.Add, 1, reg(1), reg(4)), ret(reg(1))},
			},
		},
		{
			// b3 is reached from b0 and, through the back edge of the
			// loop {b2, b3}, from b2, which the reference's LIFO order
			// processes first; b1's only predecessor is the later
			// block b3; and the entry is a loop header whose back edge
			// brings r1 and r2 in from b2.
			name: "successor reached through a back edge", params: 1, regs: 4,
			blocks: [][]ir.Instr{
				{mov(2, imm(7)), br(0, 3, 2)},
				{bin(ir.Mul, 3, reg(2), imm(2)), ret(reg(3))},
				{mov(1, imm(3)), mov(2, imm(8)), bin(ir.CmpLT, 0, reg(1), reg(2)), br(0, 0, 3)},
				{bin(ir.Add, 1, reg(2), imm(1)), br(0, 1, 2)},
			},
		},
		{
			// b2 and b3 are unreachable, and b3 jumps into the live b1:
			// neither may be rewritten, nor feed b1.
			name: "unreachable blocks", params: 0, regs: 3,
			blocks: [][]ir.Instr{
				{mov(1, imm(4)), jmp(1)},
				{bin(ir.Add, 2, reg(1), imm(1)), ret(reg(2))},
				{mov(1, imm(6)), bin(ir.Add, 2, reg(1), reg(1)), ret(reg(2))},
				{mov(1, imm(9)), jmp(1)},
			},
		},
		{
			name: "one block", params: 1, regs: 4,
			blocks: [][]ir.Instr{
				{mov(1, imm(2)), bin(ir.Add, 2, reg(1), imm(3)), bin(ir.Mul, 3, reg(2), reg(0)), ret(reg(3))},
			},
		},
		{
			// r1 and r2 are read before any definition reaches them: top
			// stays top through b0, and at the join b3 the top from b1
			// meets b2's constant.
			name: "registers read before definition", params: 1, regs: 5,
			blocks: [][]ir.Instr{
				{bin(ir.Add, 3, reg(1), imm(1)), br(0, 1, 2)},
				{mov(4, reg(3)), jmp(3)},
				{mov(2, imm(6)), jmp(3)},
				{bin(ir.Add, 4, reg(2), reg(2)), ret(reg(4))},
			},
		},
	}
	var work, refWork opt.Work
	for _, c := range cases {
		f := &ir.Func{Name: "t", Module: "m", QName: "m:t", NumParams: c.params, NumRegs: c.regs}
		for i, instrs := range c.blocks {
			f.Blocks = append(f.Blocks, &ir.Block{Index: i, Instrs: instrs})
		}
		matchReference(t, c.name, f, &work, &refWork)
	}
	t.Logf("block visits %d, reference %d; cells met %d, reference %d",
		work.CPVisits, refWork.CPVisits, work.CPCells, refWork.CPCells)
}
