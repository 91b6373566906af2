// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each benchmark reports the headline quantity of its
// experiment as a custom metric, and logs the full rendered table under
// -v so `go test -bench` doubles as the reproduction harness.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/specsuite"
)

// benchModes runs the experiment generators both serially (-j 1, the
// reference) and on the full worker pool; comparing the two sub-benchmarks'
// cells/s shows the parallel harness's speedup on the host at hand.
var benchModes = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", 0}, // 0 = one worker per CPU
}

// BenchmarkFigure5 regenerates the static call-site classification.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, r := range rows {
				total += r.Counts.Total()
			}
			b.ReportMetric(float64(total), "call-sites")
			b.Logf("\n%s", experiments.RenderFigure5(rows))
		}
	}
}

// BenchmarkTable1 regenerates the per-scope transformation table, once
// serially and once on the worker pool (identical rows either way).
func BenchmarkTable1(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			experiments.SetParallelism(mode.workers)
			defer experiments.SetParallelism(0)
			var rows []experiments.Table1Row
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Table1()
				if err != nil {
					b.Fatal(err)
				}
			}
			wall := time.Since(start).Seconds()
			cps := float64(len(rows)*b.N) / wall
			b.ReportMetric(cps, "cells/s")
			// Headline: cp must beat base on every benchmark.
			var base, cp int64
			for _, r := range rows {
				switch r.Scope {
				case "":
					base += r.RunCycles
				case "cp":
					cp += r.RunCycles
				}
			}
			b.ReportMetric(float64(base)/float64(cp), "base/cp-cycles")
			if mode.workers == 0 {
				b.Logf("\n%s", experiments.RenderTable1(rows))
			}
		})
	}
}

// BenchmarkFigure6 regenerates the speedup figure serially and on the
// worker pool; the reported headline metric is the overall
// geometric-mean speedup with both transformations (the paper's 1.32×
// headline for SPECint95).
func BenchmarkFigure6(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			experiments.SetParallelism(mode.workers)
			defer experiments.SetParallelism(0)
			var rows []experiments.Figure6Row
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.Figure6()
				if err != nil {
					b.Fatal(err)
				}
			}
			wall := time.Since(start).Seconds()
			cps := float64(len(rows)*4*b.N) / wall
			b.ReportMetric(cps, "cells/s")
			gms := experiments.GeoMeans(rows)
			if g, ok := gms["SPECint95"]; ok {
				b.ReportMetric(g.Both, "specint95-geomean-speedup")
			}
			if g, ok := gms["SPECint92"]; ok {
				b.ReportMetric(g.Both, "specint92-geomean-speedup")
			}
			if mode.workers == 0 {
				b.Logf("\n%s", experiments.RenderFigure6(rows))
			}
		})
	}
}

// BenchmarkFigure7 regenerates the machine-level simulation study; the
// reported metric is the mean relative D-cache traffic of the
// inline-and-clone builds (the paper's most dramatic effect).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var relD float64
			n := 0
			for _, r := range rows {
				if r.Config == "both" {
					relD += r.RelDAcc
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(relD/float64(n), "mean-rel-dcache-accesses")
			}
			b.Logf("\n%s", experiments.RenderFigure7(rows))
		}
	}
}

// BenchmarkFigure8 regenerates the incremental-benefit sweep; the metric
// is the ratio between the worst (no operations) and best run time at
// budget 100, i.e. how much of the win the default budget captures.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure8(nil, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var first, last int64
			for _, p := range points {
				if p.Budget == 100 {
					if first == 0 {
						first = p.RunCycles
					}
					last = p.RunCycles
				}
			}
			if last > 0 {
				b.ReportMetric(float64(first)/float64(last), "budget100-improvement")
			}
			b.Logf("\n%s", experiments.RenderFigure8(points))
		}
	}
}

// ablationCycles compiles and times one benchmark under a mutated HLO
// configuration.
func ablationCycles(b *testing.B, name string, mutate func(*driver.Options)) float64 {
	b.Helper()
	bench, err := specsuite.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := driver.DefaultOptions(bench.Train)
	mutate(&opts)
	c, err := driver.Compile(bench.Sources, opts)
	if err != nil {
		b.Fatal(err)
	}
	st, err := c.Run(opts, bench.Ref)
	if err != nil {
		b.Fatal(err)
	}
	return float64(st.Cycles)
}

// BenchmarkAblationColdPenalty measures the value of penalizing call
// sites colder than their caller's entry block.
func BenchmarkAblationColdPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.HLO.ColdPenalty = true })
		off := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.HLO.ColdPenalty = false })
		if i == 0 {
			b.ReportMetric(off/on, "off/on-cycles")
		}
	}
}

// BenchmarkAblationMultiPass compares the paper's multi-pass structure
// against a single pass (which cannot perform staged optimizations).
func BenchmarkAblationMultiPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		multi := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.HLO.Passes = 4 })
		single := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.HLO.Passes = 1 })
		if i == 0 {
			b.ReportMetric(single/multi, "single/multi-cycles")
		}
	}
}

// BenchmarkAblationCloneDB measures clone-database reuse across passes.
func BenchmarkAblationCloneDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withDB := ablationCycles(b, "124.m88ksim", func(o *driver.Options) { o.HLO.ReuseCloneDB = true })
		without := ablationCycles(b, "124.m88ksim", func(o *driver.Options) { o.HLO.ReuseCloneDB = false })
		if i == 0 {
			b.ReportMetric(without/withDB, "nodb/db-cycles")
		}
	}
}

// BenchmarkAblationQuadraticCost compares the paper's quadratic
// compile-cost model against a linear one at the same nominal budget.
func BenchmarkAblationQuadraticCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		quad := ablationCycles(b, "130.li", func(o *driver.Options) { o.HLO.LinearCost = false })
		lin := ablationCycles(b, "130.li", func(o *driver.Options) { o.HLO.LinearCost = true })
		if i == 0 {
			b.ReportMetric(lin/quad, "linear/quadratic-cycles")
		}
	}
}

// BenchmarkAblationProfile measures profile guidance against static
// heuristics at cross-module scope.
func BenchmarkAblationProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.Profile = true })
		without := ablationCycles(b, "147.vortex", func(o *driver.Options) { o.Profile = false })
		if i == 0 {
			b.ReportMetric(without/with, "static/profile-cycles")
		}
	}
}

// BenchmarkBudgetSweep generalizes Figure 8: run time of 130.li as the
// budget grows; performance should saturate near the default of 100.
func BenchmarkBudgetSweep(b *testing.B) {
	budgets := []int{0, 25, 50, 100, 200, 400}
	for i := 0; i < b.N; i++ {
		var at0, at100, at400 float64
		for _, budget := range budgets {
			budget := budget
			c := ablationCycles(b, "130.li", func(o *driver.Options) { o.HLO.Budget = budget })
			switch budget {
			case 0:
				at0 = c
			case 100:
				at100 = c
			case 400:
				at400 = c
			}
		}
		if i == 0 {
			b.ReportMetric(at0/at100, "budget0/100-cycles")
			b.ReportMetric(at100/at400, "budget100/400-cycles")
		}
	}
}

// BenchmarkCompileThroughput measures raw compiler speed: front end +
// whole-program HLO + back end for the biggest benchmark.
func BenchmarkCompileThroughput(b *testing.B) {
	bench, err := specsuite.ByName("126.gcc")
	if err != nil {
		b.Fatal(err)
	}
	opts := driver.Options{CrossModule: true, HLO: core.DefaultOptions()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Compile(bench.Sources, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// outlinePressureSrc has a hot kernel whose body drags a large cold
// error path through the I-cache; outlining extracts it.
const outlinePressureSrc = `
module main;
extern func print(x int) int;
extern func input(i int) int;
var errbuf [64] int;

noinline func kernel(v int, bad int) int {
	var r int;
	r = (v * 31 + 7) ^ (v >> 3);
	r = r + (v << 2) - (v & 255);
	if (bad) {
		var c int;
		c = v * 12345 + 999;
		c = c ^ (c >> 7); c = c + (c << 3); c = c ^ (c >> 11);
		c = c * 31 + 17; c = c ^ (c >> 5); c = c + (c << 9);
		c = c * 7 + 3; c = c ^ (c >> 2); c = c + (c << 6);
		c = c * 13 + 1; c = c ^ (c >> 4); c = c + (c << 8);
		errbuf[c & 63] = c;
		errbuf[(c + 1) & 63] = v;
		r = 0 - c;
	}
	return r & 0xffff;
}

func main() int {
	var i int;
	var s int;
	for (i = 0; i < input(0); i = i + 1) {
		s = (s + kernel(i, 0)) & 0xffffff;
	}
	print(s);
	return 0;
}
`

// BenchmarkAblationOutlining measures the paper's future-work outliner:
// cold-path extraction from a hot kernel under severe I-cache pressure.
func BenchmarkAblationOutlining(b *testing.B) {
	cfg := pa8000.Config{ICacheBytes: 256, ICacheAssoc: 1}
	for i := 0; i < b.N; i++ {
		run := func(outline bool) float64 {
			opts := driver.DefaultOptions([]int64{500})
			opts.HLO.Inline = false // isolate the outlining effect
			opts.HLO.Clone = false
			opts.HLO.Outline = outline
			opts.Machine = cfg
			c, err := driver.Compile([]string{outlinePressureSrc}, opts)
			if err != nil {
				b.Fatal(err)
			}
			st, err := c.Run(opts, []int64{50000})
			if err != nil {
				b.Fatal(err)
			}
			return float64(st.Cycles)
		}
		off := run(false)
		on := run(true)
		if i == 0 {
			b.ReportMetric(off/on, "nooutline/outline-cycles")
		}
	}
}

// BenchmarkRemarksOverhead measures the cost of the observability layer
// on the paper's peak 022.li compile: the same compile with a nil
// recorder (the default) and with remarks, spans and counters fully
// enabled. The nil path is the one every production compile pays, so it
// must stay indistinguishable from the pre-observability compiler.
func BenchmarkRemarksOverhead(b *testing.B) {
	bench, err := specsuite.ByName("022.li")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			opts := driver.DefaultOptions(bench.Train)
			opts.Obs = rec
			if rec != nil {
				rec.Reset()
			}
			if _, err := driver.Compile(bench.Sources, opts); err != nil {
				b.Fatal(err)
			}
		}
		if rec != nil {
			b.ReportMetric(float64(len(rec.Remarks())), "remarks")
			b.ReportMetric(float64(len(rec.Spans())), "spans")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.New()) })
}

// BenchmarkAblationCodeLayout measures profile-guided code positioning
// (Pettis-Hansen, the paper's reference [12]) with inlining disabled (a
// call-heavy binary) under I-cache pressure.
func BenchmarkAblationCodeLayout(b *testing.B) {
	cfg := pa8000.Config{ICacheBytes: 1024, ICacheAssoc: 1}
	for i := 0; i < b.N; i++ {
		run := func(layout backend.Layout) float64 {
			bench, err := specsuite.ByName("147.vortex")
			if err != nil {
				b.Fatal(err)
			}
			opts := driver.DefaultOptions(bench.Train)
			opts.HLO.Inline = false
			opts.HLO.Clone = false
			opts.Layout = layout
			opts.Machine = cfg
			c, err := driver.Compile(bench.Sources, opts)
			if err != nil {
				b.Fatal(err)
			}
			st, err := c.Run(opts, bench.Ref)
			if err != nil {
				b.Fatal(err)
			}
			return float64(st.Cycles)
		}
		src := run(backend.LayoutSourceOrder)
		aff := run(backend.LayoutCallAffinity)
		if i == 0 {
			b.ReportMetric(src/aff, "srcorder/affinity-cycles")
		}
	}
}
