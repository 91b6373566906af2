// Command hlocc is the compiler driver: it compiles MiniC modules with
// HLO inlining and cloning, mirroring the paper's compile paths.
//
// Traditional per-module path (the default) and the link-time
// cross-module path (-cross) are both supported, as is profile feedback
// (-profile, with -train supplying the training input vector).
//
// Usage:
//
//	hlocc [flags] file1.mc file2.mc ...
//
// Flags:
//
//	-cross          cross-module (link-time) optimization
//	-profile        instrument, run on -train inputs, recompile with profile
//	-train  1,2,3   training input vector
//	-budget N       compile-time growth budget in percent (default 100)
//	-noinline       disable inlining
//	-noclone        disable cloning
//	-outline        extract profile-cold code into new routines
//	-affinity-layout  profile-guided code positioning (Pettis-Hansen)
//	-emit-isom DIR  write optimized modules as DIR/<module>.isom
//	-emit-profile F train on -train inputs and store the profile database
//	-use-profile F  attach a stored profile database (no training run)
//	-run 1,2,3      run the executable on the PA8000 model with inputs
//	-stats          print HLO transformation statistics (with per-pass breakdown)
//	-dump           print the optimized IR listing
//	-remarks        print optimization remarks (one line per decision)
//	-remarks-json F write the remark stream as JSONL to file F
//	-trace          print the pipeline phase trace and counters to stderr
//	-spans-json F   write the flight record as span JSONL to F (hloprof
//	                renders it, Chrome trace-event JSON included)
//	-timeout D      abort compilation/training/simulation after duration D
//	-fail-policy P  pass-firewall policy when a transformation panics or
//	                fails verification: abort (default; fail the compile),
//	                rollback (restore the function snapshots and continue),
//	                skip-func (rollback, then quarantine the function)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/isom"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/resilience"
)

func main() {
	cross := flag.Bool("cross", false, "cross-module (link-time) optimization")
	profileFlag := flag.Bool("profile", false, "profile-based optimization (train first)")
	train := flag.String("train", "", "comma-separated training inputs")
	budget := flag.Int("budget", 100, "compile-time growth budget in percent")
	noinline := flag.Bool("noinline", false, "disable inlining")
	noclone := flag.Bool("noclone", false, "disable cloning")
	outline := flag.Bool("outline", false, "extract profile-cold code into new routines")
	affinity := flag.Bool("affinity-layout", false, "profile-guided code positioning")
	emitIsom := flag.String("emit-isom", "", "directory for optimized .isom modules")
	emitProfile := flag.String("emit-profile", "", "train and write the profile database to this file")
	useProfile := flag.String("use-profile", "", "attach a stored profile database instead of training")
	runInputs := flag.String("run", "", "run with comma-separated inputs")
	stats := flag.Bool("stats", false, "print HLO statistics")
	dump := flag.Bool("dump", false, "print optimized IR")
	remarks := flag.Bool("remarks", false, "print optimization remarks (one line per inline/clone/outline/dead-call decision)")
	remarksJSON := flag.String("remarks-json", "", "write the optimization remark stream as JSONL to this file")
	trace := flag.Bool("trace", false, "print the pipeline phase trace and counters to stderr")
	spansJSON := flag.String("spans-json", "", "write the flight record as span JSONL to this file")
	timeout := flag.Duration("timeout", 0, "abort compilation/training/simulation after this duration (0 = no limit)")
	failPolicy := flag.String("fail-policy", "abort", "pass-firewall policy when a transformation panics or fails verification: abort | rollback | skip-func")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hlocc: no input files")
		os.Exit(2)
	}
	sources := make([]string, 0, flag.NArg())
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		sources = append(sources, string(data))
	}

	opts := driver.Options{
		CrossModule: *cross,
		Profile:     *profileFlag,
		TrainInputs: parseInputs(*train),
		HLO:         core.DefaultOptions(),
		// One compile still benefits from the cache: under -profile the
		// instrumented build reuses the final build's front-end output
		// instead of parsing and lowering the sources a second time.
		Cache: driver.NewCache(),
	}
	// -stats needs the per-pass spans, so any observability flag turns
	// the recorder on.
	var rec *obs.Recorder
	if *remarks || *remarksJSON != "" || *trace || *stats || *spansJSON != "" {
		rec = obs.New()
	}
	opts.Obs = rec
	opts.HLO.Budget = *budget
	opts.HLO.Inline = !*noinline
	opts.HLO.Clone = !*noclone
	opts.HLO.Outline = *outline
	fp, err := resilience.ParseFailPolicy(*failPolicy)
	if err != nil {
		fatal(err)
	}
	opts.HLO.FailPolicy = fp
	if *affinity {
		opts.Layout = backend.LayoutCallAffinity
	}
	if *emitProfile != "" {
		db, err := opts.Cache.TrainProfile(ctx, sources, opts.TrainInputs, nil)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*emitProfile)
		if err != nil {
			fatal(err)
		}
		if err := db.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *useProfile != "" {
		f, err := os.Open(*useProfile)
		if err != nil {
			fatal(err)
		}
		db, err := profile.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		opts.ProfileData = db
	}

	c, err := driver.CompileCtx(ctx, sources, opts)
	if err != nil {
		fatal(err)
	}
	if *stats {
		s := c.Stats
		fmt.Printf("inlines=%d clones=%d clone-repls=%d deletions=%d outlines=%d promotions=%d dead-calls=%d\n",
			s.Inlines, s.Clones, s.CloneRepls, s.Deletions, s.Outlines, s.Promotions, s.DeadCalls)
		fmt.Printf("compile-cost=%d size %d -> %d machine-instrs=%d\n",
			c.CompileCost, s.SizeBefore, s.SizeAfter, c.CodeSize)
		printPassBreakdown(rec)
	}
	if *remarks {
		if err := obs.WriteText(os.Stdout, rec.Remarks()); err != nil {
			fatal(err)
		}
	}
	if *remarksJSON != "" {
		f, err := os.Create(*remarksJSON)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteJSONL(f, rec.Remarks()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *dump {
		fmt.Print(c.IR.String())
	}
	if *emitIsom != "" {
		for _, m := range c.IR.Modules {
			path := filepath.Join(*emitIsom, m.Name+".isom")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := isom.Write(f, m); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if *runInputs != "" || flagProvided("run") {
		st, err := c.RunCtx(ctx, opts, parseInputs(*runInputs))
		if err != nil {
			fatal(err)
		}
		for _, v := range st.Output {
			fmt.Println(v)
		}
		fmt.Printf("exit=%d cycles=%d instrs=%d cpi=%.3f\n", st.ExitCode, st.Cycles, st.Instrs, st.CPI())
	}
	if *trace {
		// Printed last so the simulate span and counters are included.
		if err := obs.WriteTrace(os.Stderr, rec.Spans()); err != nil {
			fatal(err)
		}
		if err := obs.WriteCounters(os.Stderr, rec.Counters()); err != nil {
			fatal(err)
		}
	}
	if *spansJSON != "" {
		writeSpans(*spansJSON, rec)
	}
}

// writeSpans dumps the flight record as span JSONL.
func writeSpans(path string, rec *obs.Recorder) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	err = obs.WriteSpansJSONL(f, rec.Spans())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
}

// printPassBreakdown renders the per-phase view of the compile that the
// trace spans provide: one line per HLO phase with its size/cost motion
// and the number of accepted transformations that landed in it.
func printPassBreakdown(rec *obs.Recorder) {
	remarks := rec.Remarks()
	acceptedIn := func(kind string, pass int) (n int) {
		for _, rm := range remarks {
			if rm.Accepted && rm.Kind == kind && rm.Pass == pass {
				n++
			}
		}
		return n
	}
	fmt.Println("per-pass breakdown (from trace spans):")
	for _, sp := range rec.Spans() {
		if !strings.HasPrefix(sp.Name, "hlo/") {
			continue
		}
		pass := 0
		if _, err := fmt.Sscanf(sp.Name, "hlo/pass%d/", &pass); err != nil {
			pass = 0
		}
		line := fmt.Sprintf("  %-28s %8.2fms  size %d -> %d  cost %d -> %d",
			sp.Name, sp.Dur.Seconds()*1000, sp.SizeBefore, sp.SizeAfter, sp.CostBefore, sp.CostAfter)
		switch {
		case strings.HasSuffix(sp.Name, "/inline"):
			line += fmt.Sprintf("  accepted=%d", acceptedIn("inline", pass))
		case strings.HasSuffix(sp.Name, "/clone"):
			line += fmt.Sprintf("  accepted=%d", acceptedIn("clone", pass))
		case strings.HasSuffix(sp.Name, "/outline"):
			line += fmt.Sprintf("  accepted=%d", acceptedIn("outline", 0))
		case strings.HasSuffix(sp.Name, "/dead-calls"):
			line += fmt.Sprintf("  accepted=%d", acceptedIn("dead-call", 0))
		}
		fmt.Println(line)
	}
}

func flagProvided(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			found = true
		}
	})
	return found
}

func parseInputs(s string) []int64 {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad input %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlocc:", err)
	os.Exit(1)
}
