// Command hlobench regenerates the paper's tables and figures on the
// synthetic SPEC suite and prints them as text tables.
//
// Usage:
//
//	hlobench [-fig5] [-table1] [-fig6] [-fig7] [-fig8]
//	         [-all] [-trace] [-profile] [-spans-json F]
//	         [-j N] [-sim-engine predecoded|reference]
//
// With no flags it behaves as -all. Figure 8 accepts -fig8points to
// bound the sweep resolution. -trace prints, after each experiment, the
// pipeline phase spans and the unified counter registry accumulated
// over the experiment's compiles and runs (to stderr). -profile prints
// instead the aggregated per-phase attribution ("where the time goes")
// for each experiment; -spans-json dumps the full flight record — every
// span of every experiment — as JSONL, which hloprof renders as the
// attribution report, the straggler ranking, Chrome trace-event JSON
// (-trace-out) and the coverage gate (-min-coverage). -j fans the
// independent (benchmark × configuration) cells of each experiment over
// N workers in submission order (default: one per CPU); the tables are
// byte-identical for every N, so -j 1 is purely the slow reference
// mode. -sim-engine selects the PA-8000 simulator implementation: the
// predecoded run-batched engine (default) or the instruction-at-a-time
// reference interpreter — the two produce byte-identical tables, so
// "reference" exists only to demonstrate that and to measure the
// engine's speedup.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/par"
)

func main() {
	fig5 := flag.Bool("fig5", false, "Figure 5: call-site classification")
	table1 := flag.Bool("table1", false, "Table 1: transformations per scope")
	fig6 := flag.Bool("fig6", false, "Figure 6: speedups")
	fig7 := flag.Bool("fig7", false, "Figure 7: simulation detail")
	fig8 := flag.Bool("fig8", false, "Figure 8: incremental benefit")
	fig8points := flag.Int("fig8points", 12, "max points per Figure 8 budget curve")
	prod := flag.Bool("prod", false, "Section 3.5: large generated programs")
	prodSeeds := flag.Int("prodseeds", 3, "number of generated programs for -prod")
	all := flag.Bool("all", false, "everything")
	trace := flag.Bool("trace", false, "print per-experiment phase traces and counters to stderr")
	profileFlag := flag.Bool("profile", false, "print per-experiment attribution reports to stderr")
	spansJSON := flag.String("spans-json", "", "write the full flight record as span JSONL to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the experiment cells (1 = serial, <= 0 = one per CPU)")
	simEngine := flag.String("sim-engine", "predecoded", "simulator engine: predecoded or reference")
	flag.Parse()

	switch *simEngine {
	case "predecoded":
	case "reference":
		pa8000.SetReferenceEngine(true)
	default:
		fmt.Fprintf(os.Stderr, "hlobench: unknown -sim-engine %q (want predecoded or reference)\n", *simEngine)
		os.Exit(2)
	}
	if !*fig5 && !*table1 && !*fig6 && !*fig7 && !*fig8 && !*prod {
		*all = true
	}
	if *jobs <= 0 {
		*jobs = par.DefaultWorkers() // par.Do's reading of workers <= 0
	}
	experiments.SetParallelism(*jobs)
	// Allocate and pin the simulator arenas before the first cell, one
	// per worker: the one-time 32 MB refills otherwise land inside (and
	// distort) whichever experiments run first after a GC.
	pa8000.Prewarm(pa8000.Config{}, min(*jobs, 4))
	recording := *trace || *profileFlag || *spansJSON != ""
	var rec *obs.Recorder
	if recording {
		rec = obs.New()
		experiments.SetRecorder(rec)
	}
	// allSpans accumulates every experiment's flight record across the
	// per-experiment rec.Reset(), for the end-of-run -spans-json dump.
	var allSpans []obs.Span
	run := func(name string, enabled bool, f func() (string, error)) {
		if !enabled && !*all {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlobench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
		if recording {
			spans := rec.Spans()
			allSpans = append(allSpans, spans...)
			if *trace {
				fmt.Fprintf(os.Stderr, "--- %s: pipeline trace ---\n", name)
				obs.WriteTrace(os.Stderr, spans)
				obs.WriteCounters(os.Stderr, rec.Counters())
			}
			if *profileFlag {
				fmt.Fprintf(os.Stderr, "--- %s: where the time goes ---\n", name)
				obs.WriteAttribution(os.Stderr, obs.Aggregate(spans))
				fmt.Fprintln(os.Stderr)
			}
			rec.Reset()
		}
	}

	run("figure5", *fig5, func() (string, error) {
		rows, err := experiments.Figure5()
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure5(rows), nil
	})
	run("table1", *table1, func() (string, error) {
		rows, err := experiments.Table1()
		if err != nil {
			return "", err
		}
		return experiments.RenderTable1(rows) + experiments.RenderTable1Totals(rows), nil
	})
	run("figure6", *fig6, func() (string, error) {
		rows, err := experiments.Figure6()
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure6(rows), nil
	})
	run("figure7", *fig7, func() (string, error) {
		rows, err := experiments.Figure7()
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure7(rows), nil
	})
	run("figure8", *fig8, func() (string, error) {
		points, err := experiments.Figure8(nil, *fig8points)
		if err != nil {
			return "", err
		}
		return experiments.RenderFigure8(points), nil
	})
	run("production", *prod, func() (string, error) {
		rows, err := experiments.Production(*prodSeeds)
		if err != nil {
			return "", err
		}
		return experiments.RenderProduction(rows), nil
	})

	if *spansJSON != "" {
		writeSpans(*spansJSON, allSpans)
	}
}

func writeSpans(path string, spans []obs.Span) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlobench: %v\n", err)
		os.Exit(1)
	}
	err = obs.WriteSpansJSONL(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlobench: %s: %v\n", path, err)
		os.Exit(1)
	}
}
