package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/testutil"
)

// cloneSrc reliably produces a clone + call-site replacements when
// inlining is disabled (the dispatch body is too branchy to inline under
// a small budget but specializes well on op=2).
const cloneSrc = `
module main;
extern func print(x int) int;

func dispatch(op int, a int, b int) int {
	if (op == 0) { return a + b; }
	if (op == 1) { return a - b; }
	if (op == 2) { return a * b; }
	return 0;
}

func main() int {
	var i int;
	var sum int;
	for (i = 0; i < 50; i = i + 1) {
		sum = sum + dispatch(2, i, 3);
	}
	print(sum);
	return 0;
}
`

// rollbackRemarks filters the remark stream down to pass-firewall
// rollbacks with the given reason code.
func rollbackRemarks(rec *obs.Recorder, reason core.Reason) []obs.Remark {
	var out []obs.Remark
	for _, rm := range rec.Remarks() {
		if rm.Reason == reason.String() {
			out = append(out, rm)
		}
	}
	return out
}

func counterValue(rec *obs.Recorder, name string) int64 {
	for _, c := range rec.Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestFirewallRollbackMatchesAbortUnfaulted checks the firewall's
// zero-cost-of-correctness property: with no faults armed, compiling
// under FailRollback produces bit-identical IR and statistics to the
// default abort policy.
func TestFirewallRollbackMatchesAbortUnfaulted(t *testing.T) {
	resilience.DisarmAll()
	abortP := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	abortStats := core.Run(abortP, core.WholeProgram(), core.DefaultOptions())

	rbOpts := core.DefaultOptions()
	rbOpts.FailPolicy = resilience.FailRollback
	rbP := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	rbStats := core.Run(rbP, core.WholeProgram(), rbOpts)

	if got, want := fmt.Sprintf("%+v", rbStats), fmt.Sprintf("%+v", abortStats); got != want {
		t.Errorf("stats diverge under rollback policy:\n  rollback: %s\n  abort:    %s", got, want)
	}
	if got, want := fmt.Sprintf("%s", rbP), fmt.Sprintf("%s", abortP); got != want {
		t.Errorf("IR diverges under rollback policy (no faults armed):\n%s\n--- vs ---\n%s", got, want)
	}
}

// TestFirewallInjectedPanicRollsBack arms each of HLO's fault points in
// turn and checks the containment contract: the process does not crash,
// exactly one injection fires, a rolled-back-panic remark names the
// fault, the rollback counter advances, the final IR verifies, and the
// program's observable behaviour matches an un-faulted compile.
func TestFirewallInjectedPanicRollsBack(t *testing.T) {
	defer resilience.DisarmAll()

	type cfg struct {
		point   string
		srcs    []string
		opts    func() core.Options
		profile bool
		inputs  []int64
	}
	cases := []cfg{
		{point: "core/inline", srcs: []string{hotLoopSrc, hotLoopLib},
			opts: core.DefaultOptions},
		{point: "core/opt", srcs: []string{hotLoopSrc, hotLoopLib},
			opts: core.DefaultOptions},
		{point: "core/clone", srcs: []string{cloneSrc},
			opts: func() core.Options {
				o := core.DefaultOptions()
				o.Inline = false
				return o
			}},
		{point: "core/outline", srcs: []string{outlineSrc}, profile: true,
			inputs: []int64{200},
			opts: func() core.Options {
				o := core.DefaultOptions()
				o.Outline = true
				return o
			}},
	}

	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.point, "/", "-"), func(t *testing.T) {
			opts := tc.opts()
			opts.FailPolicy = resilience.FailRollback

			mk := func() *obs.Recorder { return obs.New() }

			// Un-faulted baseline under the same policy.
			resilience.DisarmAll()
			base := testutil.MustBuild(t, tc.srcs...)
			if tc.profile {
				trainP := testutil.MustBuild(t, tc.srcs...)
				res, err := interp.Run(trainP, interp.Options{Inputs: tc.inputs, Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				res.Profile.Attach(base)
			}
			baseOpts := opts
			baseOpts.Obs = mk()
			core.Run(base, core.WholeProgram(), baseOpts)
			want := testutil.MustRun(t, base, tc.inputs...)

			// Faulted compile: the armed point panics once, mid-mutation.
			resilience.ResetStats()
			pt, err := resilience.Arm(tc.point, 0)
			if err != nil {
				t.Fatal(err)
			}
			faulted := testutil.MustBuild(t, tc.srcs...)
			if tc.profile {
				trainP := testutil.MustBuild(t, tc.srcs...)
				res, err := interp.Run(trainP, interp.Options{Inputs: tc.inputs, Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				res.Profile.Attach(faulted)
			}
			rec := mk()
			fOpts := opts
			fOpts.Obs = rec
			core.Run(faulted, core.WholeProgram(), fOpts)
			resilience.DisarmAll()

			if pt.Fired() != 1 {
				t.Fatalf("fault %s fired %d times, want exactly 1 (did the compile reach it?)",
					tc.point, pt.Fired())
			}
			rbs := rollbackRemarks(rec, core.RolledBackPanic)
			if len(rbs) != 1 {
				t.Fatalf("rolled-back-panic remarks = %d, want 1; remarks: %+v", len(rbs), rec.Remarks())
			}
			if !strings.Contains(rbs[0].Detail, tc.point) {
				t.Errorf("rollback remark detail %q does not name the fault point %s", rbs[0].Detail, tc.point)
			}
			if got := counterValue(rec, "resilience.rollbacks"); got != 1 {
				t.Errorf("resilience.rollbacks counter = %d, want 1", got)
			}
			if err := faulted.Verify(); err != nil {
				t.Fatalf("IR broken after rollback: %v", err)
			}
			got := testutil.MustRun(t, faulted, tc.inputs...)
			testutil.EqualOutput(t, got, want.ExitCode, want.Output...)
		})
	}
}

// TestFirewallSkipFuncQuarantine checks the skip-func policy: after a
// rollback the touched functions are quarantined, later passes report
// their candidates with the skipped-func reason, and the output is
// still correct.
func TestFirewallSkipFuncQuarantine(t *testing.T) {
	defer resilience.DisarmAll()

	ref := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	want := testutil.MustRun(t, ref)

	resilience.ResetStats()
	if _, err := resilience.Arm("core/inline", 0); err != nil {
		t.Fatal(err)
	}
	p := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	rec := obs.New()
	opts := core.DefaultOptions()
	opts.FailPolicy = resilience.FailSkipFunc
	opts.Obs = rec
	stats := core.Run(p, core.WholeProgram(), opts)
	resilience.DisarmAll()

	if n := len(rollbackRemarks(rec, core.RolledBackPanic)); n != 1 {
		t.Fatalf("rolled-back-panic remarks = %d, want 1", n)
	}
	if n := len(rollbackRemarks(rec, core.SkippedFunc)); n == 0 {
		t.Errorf("no skipped-func remarks: the quarantine left no trace in later passes")
	}
	if stats.Inlines != 0 {
		t.Errorf("quarantined caller/callee still inlined: %+v", stats)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("IR broken after skip-func rollback: %v", err)
	}
	got := testutil.MustRun(t, p)
	testutil.EqualOutput(t, got, want.ExitCode, want.Output...)
}

// TestRunLatchesVerifyErr checks the Run error contract: a per-mutation
// verification failure under the default policy does not panic — it is
// latched into Stats.VerifyErr.
func TestRunLatchesVerifyErr(t *testing.T) {
	opts := core.DefaultOptions()
	opts.VerifyEach = true
	opts.InjectBug = core.BugInlineBadReg

	p := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	stats := core.Run(p, core.WholeProgram(), opts)
	if stats.VerifyErr == nil {
		t.Fatalf("broken inline not caught: VerifyErr is nil, stats %+v", stats)
	}
	if !strings.Contains(stats.VerifyErr.Error(), "out of range") {
		t.Errorf("VerifyErr = %v, want an out-of-range register error", stats.VerifyErr)
	}
}

// TestFirewallVerifyRollback checks the verification arm of the
// firewall: under FailRollback+VerifyEach a structurally broken inline
// is rolled back (rolled-back-verify remark), the run continues, no
// error escapes, and the surviving program behaves like the source.
func TestFirewallVerifyRollback(t *testing.T) {
	ref := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	want := testutil.MustRun(t, ref)

	opts := core.DefaultOptions()
	opts.VerifyEach = true
	opts.InjectBug = core.BugInlineBadReg
	opts.FailPolicy = resilience.FailRollback
	rec := obs.New()
	opts.Obs = rec

	p := testutil.MustBuild(t, hotLoopSrc, hotLoopLib)
	stats, err := core.RunChecked(p, core.WholeProgram(), opts)
	if err != nil {
		t.Fatalf("rollback policy leaked a verify error: %v", err)
	}
	if stats.Inlines != 0 {
		t.Errorf("every inline is broken by the injected bug, yet %d landed", stats.Inlines)
	}
	if n := len(rollbackRemarks(rec, core.RolledBackVerify)); n == 0 {
		t.Fatalf("no rolled-back-verify remarks; remarks: %+v", rec.Remarks())
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("IR broken after verify rollback: %v", err)
	}
	got := testutil.MustRun(t, p)
	testutil.EqualOutput(t, got, want.ExitCode, want.Output...)
}
