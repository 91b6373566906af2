package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/resilience"
	"repro/internal/specsuite"
)

func compileBench(t *testing.T, name string, opts driver.Options) (*driver.Compilation, int64) {
	t.Helper()
	b, err := specsuite.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts.TrainInputs = b.Train
	c, err := driver.Compile(b.Sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(opts, b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	return c, st.Cycles
}

// TestScopeMonotonicity reproduces the paper's central Table 1 claim on
// one benchmark: widening the scope (base → c → p → cp) never hurts and
// cp is the fastest configuration.
func TestScopeMonotonicity(t *testing.T) {
	cycles := map[string]int64{}
	for _, cfg := range []struct {
		label       string
		cross, prof bool
	}{
		{"base", false, false},
		{"c", true, false},
		{"p", false, true},
		{"cp", true, true},
	} {
		opts := driver.Options{CrossModule: cfg.cross, Profile: cfg.prof, HLO: core.DefaultOptions()}
		_, cy := compileBench(t, "147.vortex", opts)
		cycles[cfg.label] = cy
	}
	t.Logf("base=%d c=%d p=%d cp=%d", cycles["base"], cycles["c"], cycles["p"], cycles["cp"])
	// Allow 3% tolerance: the paper says "by and large" monotonic.
	tol := func(a, b int64) bool { return float64(a) <= float64(b)*1.03 }
	if !tol(cycles["c"], cycles["base"]) {
		t.Errorf("cross-module (%d) slower than base (%d)", cycles["c"], cycles["base"])
	}
	if !tol(cycles["cp"], cycles["c"]) || !tol(cycles["cp"], cycles["p"]) {
		t.Errorf("cp (%d) is not the best configuration", cycles["cp"])
	}
	if cycles["cp"] >= cycles["base"] {
		t.Errorf("cp (%d) did not beat base (%d)", cycles["cp"], cycles["base"])
	}
}

// TestProfileCompileCostIncludesInstrumentation mirrors the paper's
// compile-time accounting: the p configurations include the instrumented
// build.
func TestProfileCompileCostIncludesInstrumentation(t *testing.T) {
	optsBase := driver.Options{HLO: core.DefaultOptions()}
	cBase, _ := compileBench(t, "022.li", optsBase)
	optsP := driver.Options{Profile: true, HLO: core.DefaultOptions()}
	cP, _ := compileBench(t, "022.li", optsP)
	if cP.CompileCost <= cBase.CompileCost {
		t.Errorf("profile compile cost (%d) should exceed base (%d)", cP.CompileCost, cBase.CompileCost)
	}
	if cP.TrainResult == nil {
		t.Error("training result missing")
	}
}

// TestPerModuleStatsAggregate checks that the traditional path reports
// the union of per-module statistics.
func TestPerModuleStatsAggregate(t *testing.T) {
	opts := driver.Options{HLO: core.DefaultOptions()}
	c, _ := compileBench(t, "124.m88ksim", opts)
	if c.Stats.Inlines == 0 {
		t.Errorf("per-module path found no within-module inlines: %+v", c.Stats)
	}
	if c.CodeSize == 0 {
		t.Error("code size not recorded")
	}
}

// TestFrontendErrors surfaces compile errors through the driver.
func TestFrontendErrors(t *testing.T) {
	if _, err := driver.Compile([]string{"module m; func f() int { return x; }"}, driver.Options{HLO: core.DefaultOptions()}); err == nil {
		t.Error("undefined identifier not reported")
	}
	if _, err := driver.Compile([]string{"not a program"}, driver.Options{HLO: core.DefaultOptions()}); err == nil {
		t.Error("syntax error not reported")
	}
}

// TestInjectedFrontEndFaultsDegrade proves the front end's two fault
// points: a panic while parsing ("driver/frontend") or lowering
// ("lower/module") comes back from Compile as an error from that stage's
// guard naming the point, no panic escapes, and the next compile of the
// same sources succeeds.
func TestInjectedFrontEndFaultsDegrade(t *testing.T) {
	t.Cleanup(resilience.DisarmAll)
	srcs := []string{"module m; func main() int { return 42; }"}
	compile := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic escaped Compile: %v", r)
			}
		}()
		_, err = driver.Compile(srcs, driver.Options{HLO: core.DefaultOptions()})
		return err
	}
	for _, tc := range []struct{ point, guard string }{
		{"driver/frontend", "driver: frontend panicked"},
		{"lower/module", "lower: module m: lowering panicked"},
	} {
		t.Run(strings.ReplaceAll(tc.point, "/", "-"), func(t *testing.T) {
			if _, err := resilience.Arm(tc.point, 0); err != nil {
				t.Fatal(err)
			}
			err := compile()
			if err == nil || !strings.Contains(err.Error(), tc.guard) ||
				!strings.Contains(err.Error(), "injected fault at "+tc.point) {
				t.Fatalf("armed Compile = %v, want an error from %q naming the injected fault", err, tc.guard)
			}
			if err := compile(); err != nil {
				t.Fatalf("Compile after one-shot fault: %v", err)
			}
		})
	}
}

// TestTrainProfile exposes the profile database independently.
func TestTrainProfile(t *testing.T) {
	b, err := specsuite.ByName("072.sc")
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.TrainProfile(b.Sources, b.Train)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalCalls() == 0 {
		t.Error("empty profile from training run")
	}
}

// TestMultiSourceProfiles exercises merged training runs (the paper's
// future-work item on profiles from a variety of sources).
func TestMultiSourceProfiles(t *testing.T) {
	b, err := specsuite.ByName("134.perl")
	if err != nil {
		t.Fatal(err)
	}
	opts := driver.DefaultOptions(b.Train)
	opts.ExtraTrainInputs = [][]int64{{5, 99}, {12, 7}}
	c, err := driver.Compile(b.Sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(opts, b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	// Behaviour must be unchanged versus the single-profile build.
	single, err := driver.Compile(b.Sources, driver.DefaultOptions(b.Train))
	if err != nil {
		t.Fatal(err)
	}
	stSingle, err := single.Run(opts, b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Output[0] != stSingle.Output[0] {
		t.Errorf("merged-profile build changed behaviour: %v vs %v", st.Output, stSingle.Output)
	}
}
