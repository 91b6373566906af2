package opt_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/testutil"
)

// optimizeAll applies the pipeline to every function.
func optimizeAll(p *ir.Program) {
	opt.OptimizeProgram(p, nil)
}

// runBoth checks that optimization preserves observable behaviour.
func runBoth(t *testing.T, src string, inputs ...int64) {
	t.Helper()
	before := testutil.MustBuild(t, src)
	want := testutil.MustRun(t, before, inputs...)

	after := testutil.MustBuild(t, src)
	optimizeAll(after)
	if err := after.Verify(); err != nil {
		t.Fatalf("verify after optimize: %v", err)
	}
	got := testutil.MustRun(t, after, inputs...)

	if got.ExitCode != want.ExitCode {
		t.Errorf("exit = %d, want %d", got.ExitCode, want.ExitCode)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("output = %v, want %v", got.Output, want.Output)
	}
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Errorf("output[%d] = %d, want %d", i, got.Output[i], want.Output[i])
		}
	}
	if got.Steps > want.Steps {
		t.Errorf("optimized program executed MORE instructions: %d > %d", got.Steps, want.Steps)
	}
}

func TestConstFoldingShrinksWork(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
func main() int {
	var a int;
	var b int;
	a = 3 * 4 + 5;     // 17
	b = a * 2 - 4;     // 30
	if (a > 100) { print(111); } else { print(b); }
	return 0;
}
`
	p := testutil.MustBuild(t, src)
	main := p.Func("main:main")
	sizeBefore := main.Size()
	optimizeAll(p)
	if got := main.Size(); got >= sizeBefore {
		t.Errorf("size after optimize = %d, want < %d", got, sizeBefore)
	}
	// The branch must have been folded away.
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Br {
				t.Errorf("branch on constant survived optimization")
			}
		}
	}
	runBoth(t, src)
}

func TestBranchFoldingRemovesDeadArm(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
func pick(flag int) int {
	if (flag) { return 1; }
	return 2;
}
func main() int {
	print(pick(7));
	print(pick(0));
	return 0;
}
`
	runBoth(t, src)
}

func TestDCEKeepsStoresAndCalls(t *testing.T) {
	runBoth(t, `
module main;
extern func print(x int) int;
var g int;
func bump() int { g = g + 1; return g; }
func main() int {
	var dead int;
	dead = bump();   // result unused but callee impure: must stay
	dead = 5;        // genuinely dead
	print(g);
	return 0;
}
`)
}

func TestLocalCSEPreservesSemantics(t *testing.T) {
	runBoth(t, `
module main;
extern func print(x int) int;
var a [8] int;
func main() int {
	var i int;
	var s int;
	for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
	s = a[2] + a[2] + a[2];   // repeated loads
	a[2] = 100;
	s = s + a[2];             // must see the store
	print(s);
	return 0;
}
`)
}

func TestShortCircuitOptimized(t *testing.T) {
	runBoth(t, `
module main;
extern func print(x int) int;
extern func input(i int) int;
var calls int;
func probe(v int) int { calls = calls + 1; return v; }
func main() int {
	var x int;
	x = input(0);
	print(x > 0 && probe(x) > 2);
	print(x < 0 || probe(x) > 1);
	print(calls);
	return 0;
}
`, 3)
}

func TestIndirectToDirectConversion(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
func sq(x int) int { return x * x; }
func main() int {
	var f int;
	f = sq;        // constant function address
	print(f(9));   // becomes a direct call after const prop
	return 0;
}
`
	p := testutil.MustBuild(t, src)
	optimizeAll(p)
	main := p.Func("main:main")
	foundDirect := false
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.ICall:
				t.Errorf("indirect call survived constant propagation")
			case ir.Call:
				if b.Instrs[i].Callee == "main:sq" {
					foundDirect = true
				}
			}
		}
	}
	if !foundDirect {
		t.Errorf("no direct call to main:sq found after optimization")
	}
	runBoth(t, src)
}

func TestUnreachableLoopRemoved(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
func main() int {
	var i int;
	if (0) {
		while (i < 100) { i = i + 1; print(i); }
	}
	print(1);
	return 0;
}
`
	p := testutil.MustBuild(t, src)
	optimizeAll(p)
	main := p.Func("main:main")
	if len(main.Blocks) > 2 {
		t.Errorf("dead loop not fully removed: %d blocks\n%s", len(main.Blocks), main)
	}
	runBoth(t, src)
}

func TestPureCallDeletion(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
func pureAdd(a int, b int) int { return a + b; }
func main() int {
	pureAdd(1, 2);      // dead pure call: deletable
	print(pureAdd(3, 4)); // live: must stay (or be folded to 7)
	return 0;
}
`
	p := testutil.MustBuild(t, src)
	pure := func(callee string) bool { return callee == "main:pureAdd" }
	p.Funcs(func(f *ir.Func) bool { opt.Optimize(f, pure, nil); return true })
	main := p.Func("main:main")
	calls := 0
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call && b.Instrs[i].Callee == "main:pureAdd" {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Errorf("got %d calls to pureAdd after DCE, want 1", calls)
	}
	res := testutil.MustRun(t, p)
	testutil.EqualOutput(t, res, 0, 7)
}

func TestOptimizePreservesRecursion(t *testing.T) {
	runBoth(t, `
module main;
extern func print(x int) int;
func ack(m int, n int) int {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}
func main() int {
	print(ack(2, 3));
	return 0;
}
`)
}

func TestConstPropThroughLoop(t *testing.T) {
	runBoth(t, `
module main;
extern func print(x int) int;
func main() int {
	var k int;
	var i int;
	var sum int;
	k = 4;           // constant through the loop
	sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		sum = sum + k;
	}
	print(sum);
	return 0;
}
`)
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
module main;
extern func print(x int) int;
var g int;
var a [8] int;
func main() int {
	g = 41;
	print(g + 1);     // forwarded: no reload
	a[3] = 10;
	print(a[3] * 2);  // forwarded through the array slot
	a[4] = 5;         // different (maybe aliasing) store kills facts
	print(a[3]);      // must reload: 10
	return 0;
}
`
	p := testutil.MustBuild(t, src)
	optimizeAll(p)
	res := testutil.MustRun(t, p)
	testutil.EqualOutput(t, res, 0, 42, 20, 10)
	runBoth(t, src)
}
