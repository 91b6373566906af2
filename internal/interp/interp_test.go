package interp_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/testutil"
)

func TestProfileCollection(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
extern func print(x int) int;
func work(n int) int {
	var i int;
	var s int;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
func main() int {
	print(work(10));
	print(work(20));
	return 0;
}
`)
	res, err := interp.Run(p, interp.Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no profile collected")
	}
	workCounts := res.Profile.Blocks["main:work"]
	if len(workCounts) == 0 {
		t.Fatal("work not profiled")
	}
	if workCounts[0] != 2 {
		t.Errorf("work entry count = %d, want 2", workCounts[0])
	}
	// The loop body runs 10+20 = 30 times; find a block with count 30.
	found := false
	for _, c := range workCounts {
		if c == 30 {
			found = true
		}
	}
	if !found {
		t.Errorf("no block with count 30 in %v", workCounts)
	}
	mainCounts := res.Profile.Blocks["main:main"]
	if len(mainCounts) == 0 || mainCounts[0] != 1 {
		t.Errorf("main entry count = %v, want 1", mainCounts)
	}

	// Attaching decorates the IR.
	res.Profile.Attach(p)
	work := p.Func("main:work")
	if work.EntryCount != 2 {
		t.Errorf("EntryCount = %d after attach", work.EntryCount)
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
func main() int {
	while (1) { }
	return 0;
}
`)
	_, err := interp.Run(p, interp.Options{Fuel: 10_000})
	if !errors.Is(err, interp.ErrFuel) {
		t.Errorf("err = %v, want ErrFuel", err)
	}
}

func TestInvalidMemoryAccess(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
var a [4] int;
func main() int {
	a[-1000000] = 5;
	return 0;
}
`)
	_, err := interp.Run(p, interp.Options{})
	if err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Errorf("err = %v, want invalid-address", err)
	}
}

// TestGlobalsBeyondMemory: globals that do not fit in memory are an
// error, not a panic while the machine lays them out.
func TestGlobalsBeyondMemory(t *testing.T) {
	p := testutil.MustBuild(t, `
module m;
var big [5000000] int;
var x int = 7;
func main() int { return x; }
`)
	_, err := interp.Run(p, interp.Options{Profile: true})
	if err == nil || !strings.Contains(err.Error(), "beyond memory") {
		t.Errorf("err = %v, want globals-beyond-memory", err)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
func down(n int) int {
	var pad [64] int;
	pad[0] = n;
	return down(n + 1) + pad[0];
}
func main() int {
	return down(0);
}
`)
	_, err := interp.Run(p, interp.Options{MemSize: 1 << 14})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v, want stack overflow", err)
	}
}

func TestHaltStopsImmediately(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
extern func print(x int) int;
extern func halt(c int) int;
func main() int {
	print(1);
	halt(9);
	print(2);
	return 0;
}
`)
	res := testutil.MustRun(t, p)
	testutil.EqualOutput(t, res, 9, 1)
}

func TestArityMismatchSemantics(t *testing.T) {
	// Too FEW arguments (reachable only through a lying extern or a
	// miscompile) is a hard error: zero-filling would let the
	// differential oracle mask a transformation bug.
	p := testutil.MustBuild(t, `
module main;
extern func print(x int) int;
extern func f(a int) int;
func main() int {
	print(f(7));
	return 0;
}
`, `
module lib;
func f(a int, b int) int { return a * 100 + b; }
`)
	_, err := interp.Run(p, interp.Options{})
	if err == nil || !strings.Contains(err.Error(), "args") {
		t.Errorf("err = %v, want arity error", err)
	}

	// Too MANY arguments is defined behaviour: the surplus is dropped
	// (the varargs calling convention relies on this).
	p = testutil.MustBuild(t, `
module main;
extern func print(x int) int;
extern func f(a int, b int, c int) int;
func main() int {
	print(f(7, 5, 99));
	return 0;
}
`, `
module lib;
func f(a int, b int) int { return a * 100 + b; }
`)
	res := testutil.MustRun(t, p)
	testutil.EqualOutput(t, res, 0, 705)
}

func TestInputOutOfRangeContract(t *testing.T) {
	// input(i) returns 0 for any out-of-range index — defined behaviour,
	// identical in the interpreter and the PA8000 model (SysInput).
	p := testutil.MustBuild(t, `
module main;
extern func print(x int) int;
extern func input(i int) int;
extern func ninputs() int;
func main() int {
	print(input(0));
	print(input(5));
	print(input(-1));
	print(ninputs());
	return 0;
}
`)
	res, err := interp.Run(p, interp.Options{Inputs: []int64{42, 7}})
	if err != nil {
		t.Fatal(err)
	}
	testutil.EqualOutput(t, res, 0, 42, 0, 0, 2)
}

func TestStepsCounted(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
func main() int { return 1 + 2; }
`)
	res := testutil.MustRun(t, p)
	if res.Steps <= 0 || res.Steps > 10 {
		t.Errorf("steps = %d, want a small positive count", res.Steps)
	}
}

// TestRunawayRecursionDepthLimited: a frameless infinite recursion must
// come back as an error, not crash the process — the interpreter
// recurses on the Go stack and the simulated stack pointer never moves
// for functions without frame objects.
func TestRunawayRecursionDepthLimited(t *testing.T) {
	p := testutil.MustBuild(t, `
module main;
func spin(n int) int { return spin(n + 1); }
func main() int { return spin(0); }
`)
	_, err := interp.Run(p, interp.Options{MaxDepth: 1000})
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("runaway recursion: got err %v, want call-depth error", err)
	}
}
