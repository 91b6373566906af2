package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/source"
)

// tinyProgram builds a minimal two-module resolved program by hand.
func tinyProgram(t *testing.T) *Program {
	t.Helper()
	lib := &Module{Name: "lib"}
	libG := &Global{Name: "data", Module: "lib", Size: 4}
	lib.Globals = append(lib.Globals, libG)
	helper := &Func{
		Name: "helper", Module: "lib", NumParams: 1, NumRegs: 2,
		Blocks: []*Block{{Index: 0, Instrs: []Instr{
			{Op: Add, Dst: 1, A: RegOp(0), B: ConstOp(1)},
			{Op: Ret, A: RegOp(1)},
		}}},
	}
	lib.Funcs = append(lib.Funcs, helper)

	mainMod := &Module{Name: "main"}
	mainFn := &Func{
		Name: "main", Module: "main", NumRegs: 2,
		Blocks: []*Block{{Index: 0, Instrs: []Instr{
			{Op: Call, Dst: 0, Callee: "helper", Args: []Operand{ConstOp(41)}},
			{Op: Store, A: GlobalOp("data"), B: RegOp(0)},
			{Op: Call, Dst: 1, Callee: "print", Args: []Operand{RegOp(0)}},
			{Op: Ret, A: ConstOp(0)},
		}}},
	}
	mainMod.Funcs = append(mainMod.Funcs, mainFn)

	p := NewProgram(mainMod, lib)
	if err := p.Resolve(); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

func TestResolveCanonicalizes(t *testing.T) {
	p := tinyProgram(t)
	main := p.Func("main:main")
	if main == nil {
		t.Fatal("main:main not found")
	}
	in := &main.Blocks[0].Instrs[0]
	if in.Callee != "lib:helper" {
		t.Errorf("callee = %q, want lib:helper", in.Callee)
	}
	if got := main.Blocks[0].Instrs[1].A.Sym; got != "lib:data" {
		t.Errorf("global ref = %q, want lib:data", got)
	}
	if got := main.Blocks[0].Instrs[2].Callee; got != "rt:print" {
		t.Errorf("print resolved to %q, want rt:print", got)
	}
}

func TestResolveRejectsAmbiguousAndMissing(t *testing.T) {
	mk := func(mod, fn string) *Module {
		return &Module{Name: mod, Funcs: []*Func{{
			Name: fn, Module: mod, NumRegs: 1,
			Blocks: []*Block{{Index: 0, Instrs: []Instr{{Op: Ret, A: ConstOp(0)}}}},
		}}}
	}
	// Two exported funcs with the same name in different modules.
	caller := mk("main", "main")
	caller.Funcs[0].Blocks[0].Instrs = []Instr{
		{Op: Call, Dst: 0, Callee: "dup", Args: nil},
		{Op: Ret, A: ConstOp(0)},
	}
	caller.Funcs[0].NumRegs = 1
	p := NewProgram(caller, mk("a", "dup"), mk("b", "dup"))
	if err := p.Resolve(); err == nil || !strings.Contains(err.Error(), "multiply defined") {
		t.Errorf("ambiguous resolution not rejected: %v", err)
	}

	q := NewProgram(mk("main", "main"))
	q.Modules[0].Funcs[0].Blocks[0].Instrs = []Instr{
		{Op: Call, Dst: 0, Callee: "ghost"},
		{Op: Ret, A: ConstOp(0)},
	}
	if err := q.Resolve(); err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("missing symbol not rejected: %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	check := func(mutate func(*Program), wantSub string) {
		t.Helper()
		p := tinyProgram(t)
		mutate(p)
		err := p.Verify()
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("want error containing %q, got %v", wantSub, err)
		}
	}
	check(func(p *Program) {
		f := p.Func("lib:helper")
		f.Blocks[0].Instrs[0].Dst = 99
	}, "out of range")
	check(func(p *Program) {
		f := p.Func("lib:helper")
		f.Blocks[0].Instrs = f.Blocks[0].Instrs[:1]
	}, "not terminated")
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks[0].Instrs[0].Callee = "lib:nothing"
	}, "unresolved function")
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks = append(f.Blocks, &Block{Index: 0, Instrs: []Instr{{Op: Ret, A: ConstOp(0)}}})
	}, "has index")
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks[0].Instrs[3] = Instr{Op: Br, A: ConstOp(1), Then: 0, Else: 7}
	}, "out of range")
}

func TestVerifyStrictRules(t *testing.T) {
	// The tiny program is clean: strict verification passes.
	if err := tinyProgram(t).VerifyStrict(); err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	check := func(mutate func(*Program), wantSub string) {
		t.Helper()
		p := tinyProgram(t)
		mutate(p)
		err := p.VerifyStrict()
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("want error containing %q, got %v", wantSub, err)
		}
	}
	// Direct call with too few arguments for the callee.
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks[0].Instrs[0].Args = nil
	}, "with 0 args")
	// Direct call with too many arguments to a non-varargs callee.
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks[0].Instrs[0].Args = []Operand{ConstOp(1), ConstOp(2)}
	}, "with 2 args")
	// Indirect call through a known function address (the constprop
	// devirtualization shape) is held to the same rule.
	check(func(p *Program) {
		f := p.Func("main:main")
		f.Blocks[0].Instrs[0] = Instr{Op: ICall, Dst: 0, A: FuncOp("lib:helper")}
	}, "with 0 args")
	// Profile flow: entry block count must match EntryCount.
	check(func(p *Program) {
		f := p.Func("lib:helper")
		f.EntryCount = 10
		f.Blocks[0].Count = 7
	}, "profile flow")
	check(func(p *Program) {
		f := p.Func("lib:helper")
		f.Blocks[0].Count = -1
	}, "negative profile count")
	// Stale size memo: mutate instructions without InvalidateSize.
	check(func(p *Program) {
		f := p.Func("lib:helper")
		f.Size() // prime the memo
		f.Blocks[0].Instrs = append([]Instr{{Op: Nop}}, f.Blocks[0].Instrs...)
	}, "stale size memo")

	// Varargs callees accept surplus arguments under strict rules.
	p := tinyProgram(t)
	p.Func("lib:helper").Varargs = true
	p.Func("main:main").Blocks[0].Instrs[0].Args = []Operand{ConstOp(1), ConstOp(2)}
	if err := p.VerifyStrict(); err != nil {
		t.Errorf("varargs surplus rejected: %v", err)
	}
}

func TestFuncCloneIsDeep(t *testing.T) {
	p := tinyProgram(t)
	f := p.Func("lib:helper")
	c := f.Clone("lib:helper$c1")
	c.Blocks[0].Instrs[0].B = ConstOp(999)
	c.Blocks[0].Count = 123
	if f.Blocks[0].Instrs[0].B.Val == 999 {
		t.Error("clone shares instruction storage with original")
	}
	if f.Blocks[0].Count == 123 {
		t.Error("clone shares block storage")
	}
	if c.QName != "lib:helper$c1" || f.QName == c.QName {
		t.Error("clone naming wrong")
	}
}

func TestAddRemoveFunc(t *testing.T) {
	p := tinyProgram(t)
	f := p.Func("lib:helper")
	c := f.Clone("lib:helper$c1")
	if err := p.AddFunc(c); err != nil {
		t.Fatalf("AddFunc: %v", err)
	}
	if p.Func("lib:helper$c1") != c {
		t.Error("clone not registered")
	}
	if err := p.AddFunc(c); err == nil {
		t.Error("duplicate AddFunc accepted")
	}
	p.RemoveFunc(c)
	if p.Func("lib:helper$c1") != nil {
		t.Error("RemoveFunc left symbol behind")
	}
	found := false
	for _, fn := range p.Module("lib").Funcs {
		if fn == c {
			found = true
		}
	}
	if found {
		t.Error("RemoveFunc left module entry behind")
	}
}

func TestSitesAssignFindClear(t *testing.T) {
	p := tinyProgram(t)
	last := p.AssignSites(0)
	if last != 2 {
		t.Errorf("assigned %d sites, want 2 (the two calls in main)", last)
	}
	main := p.Func("main:main")
	blk, idx, ok := FindSite(main, 1)
	if !ok || blk.Index != 0 || idx != 0 {
		t.Errorf("FindSite(1) = %v %d %v", blk, idx, ok)
	}
	ClearSites(main.Blocks)
	if _, _, ok := FindSite(main, 1); ok {
		t.Error("site survived ClearSites")
	}
}

func TestInstrUsesAndOperands(t *testing.T) {
	in := Instr{Op: ICall, Dst: 5, A: RegOp(1), Args: []Operand{RegOp(2), ConstOp(3), RegOp(4)}}
	uses := in.Uses(nil)
	want := map[Reg]bool{1: true, 2: true, 4: true}
	if len(uses) != 3 {
		t.Fatalf("uses = %v", uses)
	}
	for _, r := range uses {
		if !want[r] {
			t.Errorf("unexpected use r%d", r)
		}
	}
	count := 0
	in.Operands(func(o *Operand) { count++ })
	if count != 4 { // A + 3 args
		t.Errorf("Operands visited %d, want 4", count)
	}
	st := Instr{Op: Store, A: GlobalOp("g"), B: RegOp(7)}
	if uses := st.Uses(nil); len(uses) != 1 || uses[0] != 7 {
		t.Errorf("store uses = %v", uses)
	}
}

func TestBlockSuccs(t *testing.T) {
	br := &Block{Instrs: []Instr{{Op: Br, A: RegOp(0), Then: 1, Else: 2}}}
	if s, n := br.Succs(); n != 2 || s[0] != 1 || s[1] != 2 {
		t.Errorf("br succs = %v", s[:n])
	}
	brSame := &Block{Instrs: []Instr{{Op: Br, A: RegOp(0), Then: 3, Else: 3}}}
	if s, n := brSame.Succs(); n != 1 || s[0] != 3 {
		t.Errorf("degenerate br succs = %v", s[:n])
	}
	ret := &Block{Instrs: []Instr{{Op: Ret, A: ConstOp(0)}}}
	if s, n := ret.Succs(); n != 0 {
		t.Errorf("ret succs = %v", s[:n])
	}

	// Walking every successor of a function allocates nothing.
	f := &Func{Blocks: []*Block{
		{Index: 0, Instrs: []Instr{{Op: Jmp, Then: 1}}},
		br, brSame, ret,
	}}
	edges := 0
	if allocs := testing.AllocsPerRun(100, func() {
		edges = 0
		for _, b := range f.Blocks {
			ss, n := b.Succs()
			for range ss[:n] {
				edges++
			}
		}
	}); allocs != 0 || edges != 4 {
		t.Errorf("successor walk: %v allocs, %d edges; want 0 allocs, 4 edges", allocs, edges)
	}
}

func TestOperandEquality(t *testing.T) {
	prop := func(v int64, r int32, sym string) bool {
		a := ConstOp(v)
		if !a.Eq(ConstOp(v)) {
			return false
		}
		if a.Eq(RegOp(Reg(r))) {
			return false
		}
		g := GlobalOp(sym)
		f := FuncOp(sym)
		return g.Eq(GlobalOp(sym)) && !g.Eq(f)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPrinterStableUnderClone(t *testing.T) {
	p := tinyProgram(t)
	before := p.String()
	f := p.Func("lib:helper")
	_ = f.Clone("lib:helper$c1") // not added: must not affect the program
	if p.String() != before {
		t.Error("cloning a function mutated the program listing")
	}
}

var _ = source.Pos{}
