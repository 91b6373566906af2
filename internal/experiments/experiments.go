// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3) on the synthetic SPEC suite:
//
//	Figure 5  static call-site classification
//	Table 1   inline/clone/deletion statistics and compile/run time under
//	          the four scopes (base, c, p, cp)
//	Figure 6  relative speedup with inline-only / clone-only / both
//	Figure 7  machine-level simulation detail (cycles, CPI, caches,
//	          branches) for neither/inline/clone/both
//	Figure 8  incremental benefit of successive inline and clone
//	          operations at budgets 25/100/200/1000 on 022.li
//
// Absolute numbers differ from the paper (the substrate is a synthetic
// machine model); the claims reproduced are the shapes: who wins, by
// roughly what factor, and where the curves flatten.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ipa"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/par"
	"repro/internal/specsuite"
)

// recorder, when set via SetRecorder, observes every compile and run
// the experiment generators perform.
var recorder *obs.Recorder

// SetRecorder routes all subsequent experiment compiles through rec
// (phase spans, remarks, counters — hlobench's -trace). Pass nil to
// detach. Not safe to change while an experiment is running.
func SetRecorder(rec *obs.Recorder) { recorder = rec }

// workers is the fan-out width of the experiment generators; 0 means
// one worker per CPU (par.DefaultWorkers).
var workers int

// SetParallelism sets how many workers the experiment generators fan
// their (benchmark × configuration) cells over: hlobench's -j. n <= 0
// restores the default of one worker per CPU; 1 forces the serial
// reference behaviour. Results are byte-identical under any setting.
// Not safe to change while an experiment is running.
func SetParallelism(n int) { workers = n }

// cache memoizes the front end and training stage across every cell of
// every experiment: Table 1 compiles each benchmark 4 times, Figure 8
// compiles 022.li dozens of times, and all of them share one frontend
// and (per training-input set) one training run.
var cache = driver.NewCache()

// ResetCache drops the shared frontend/training cache. Profiling and
// determinism tooling uses it to compare runs from a cold start: with a
// warm cache the second run records no frontend/parse or train/run
// spans, so its attribution table legitimately differs from the first.
func ResetCache() { cache = driver.NewCache() }

// forEachCell runs n independent experiment cells across the configured
// workers in submission order. Every cell gets a private recorder (when
// a global recorder is attached) merged back in submission order, so
// traces are identical to a serial run's under any worker count.
// label(i) names cell i's root span ("cell/..."), the unit of straggler
// ranking and attribution coverage.
func forEachCell(n int, label func(i int) string, task func(i int, rec *obs.Recorder) error) error {
	return par.DoObsNamed(workers, recorder, n, label, task)
}

// warmTrain runs the shared training stage of each benchmark as its
// own cell ("cell/<exp>/<bench>/train"). The profile-fed cells of the
// experiment then hit the training cache, so training cost is
// attributed to a dedicated span instead of inflating whichever
// measured cell happened to get there first.
func warmTrain(exp string, benches []*specsuite.Benchmark) error {
	label := func(i int) string {
		return "cell/" + exp + "/" + benches[i].Name + "/train"
	}
	return forEachCell(len(benches), label, func(i int, rec *obs.Recorder) error {
		b := benches[i]
		if _, err := cache.TrainProfileObs(context.Background(), b.Sources, b.Train, nil, rec); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		return nil
	})
}

// compileAndRun builds one benchmark under the given options and times
// it on the given input vector (usually b.Ref or one entry of
// b.RefVectors()). rec is the cell's recorder (nil when recording is
// off).
func compileAndRun(b *specsuite.Benchmark, opts driver.Options, inputs []int64, rec *obs.Recorder) (*driver.Compilation, *pa8000.Stats, error) {
	opts.TrainInputs = b.Train
	opts.Obs = rec
	opts.Cache = cache
	c, err := driver.Compile(b.Sources, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	st, err := c.Run(opts, inputs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: run: %w", b.Name, err)
	}
	return c, st, nil
}

// refCell identifies one (benchmark, configuration, input-vector)
// experiment cell. Benchmarks whose reference workload is a deck of
// independent vectors (specsuite.Benchmark.RefVecs) get one cell per
// vector so the worker pool can spread the deck across workers — the
// monolithic m88ksim run was the straggler capping parallel speedup.
// Cycles are summed per (benchmark, configuration) after the barrier;
// the sum is byte-identical to running the deck sequentially in one
// cell because every vector simulates from a fresh machine state.
type refCell struct{ bi, ci, vi int }

// refCells flattens benches × nConfigs × per-bench ref vectors.
func refCells(benches []*specsuite.Benchmark, nConfigs int) []refCell {
	var cells []refCell
	for bi, b := range benches {
		nv := len(b.RefVectors())
		for ci := 0; ci < nConfigs; ci++ {
			for vi := 0; vi < nv; vi++ {
				cells = append(cells, refCell{bi, ci, vi})
			}
		}
	}
	return cells
}

// cellLabel names a refCell's root span: "cell/<exp>/<bench>/<config>",
// plus a "/v<i>" vector suffix only for benchmarks with a split deck
// (single-vector labels stay byte-compatible with the profiling docs).
func cellLabel(exp string, b *specsuite.Benchmark, config string, vi int) string {
	l := "cell/" + exp + "/" + b.Name + "/" + config
	if len(b.RefVectors()) > 1 {
		l += fmt.Sprintf("/v%d", vi)
	}
	return l
}

// Figure5Row is one bar of Figure 5.
type Figure5Row struct {
	Name   string
	Suite  string
	Counts ipa.SiteCounts
}

// Figure5 classifies the static call sites of every benchmark.
func Figure5() ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, b := range specsuite.All() {
		p, err := cache.Frontend(b.Sources)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, Figure5Row{Name: b.Name, Suite: b.Suite, Counts: ipa.Classify(p)})
	}
	return rows, nil
}

// Table1Row is one configuration line of Table 1.
type Table1Row struct {
	Name        string
	Scope       string     // "", "c", "p", "cp"
	Stats       core.Stats // full HLO transformation statistics
	CompileCost int64      // compile-time model units (Σ size², + instrumented build for p)
	RunCycles   int64
}

// table1Configs are the four scope configurations of Table 1.
var table1Configs = []struct {
	scope       string
	cross, prof bool
}{
	{"", false, false},
	{"c", true, false},
	{"p", false, true},
	{"cp", true, true},
}

// Table1 reproduces the paper's per-scope transformation statistics for
// the Table 1 benchmark subset. Every (benchmark, scope) cell is
// independent and runs on the worker pool.
func Table1() ([]Table1Row, error) {
	names := specsuite.Table1Names()
	benches := make([]*specsuite.Benchmark, len(names))
	for i, name := range names {
		b, err := specsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	// The "p" and "cp" cells of one benchmark share a memoized training
	// run; warming it in a dedicated phase gives training its own cell
	// spans.
	if err := warmTrain("table1", benches); err != nil {
		return nil, err
	}
	nc := len(table1Configs)
	cells := refCells(benches, nc)
	rows := make([]Table1Row, len(benches)*nc)
	cycles := make([]int64, len(cells))
	label := func(i int) string {
		cl := cells[i]
		scope := table1Configs[cl.ci].scope
		if scope == "" {
			scope = "base"
		}
		return cellLabel("table1", benches[cl.bi], scope, cl.vi)
	}
	err := forEachCell(len(cells), label, func(i int, rec *obs.Recorder) error {
		cl := cells[i]
		b, cfg := benches[cl.bi], table1Configs[cl.ci]
		opts := driver.Options{
			CrossModule: cfg.cross,
			Profile:     cfg.prof,
			HLO:         core.DefaultOptions(),
		}
		c, st, err := compileAndRun(b, opts, b.RefVectors()[cl.vi], rec)
		if err != nil {
			return err
		}
		cycles[i] = st.Cycles
		if cl.vi == 0 {
			// Transformation statistics and compile cost are properties
			// of the build, identical for every vector of the deck; the
			// deck's run cycles are summed below.
			rows[cl.bi*nc+cl.ci] = Table1Row{
				Name:        b.Name,
				Scope:       cfg.scope,
				Stats:       c.Stats,
				CompileCost: c.CompileCost,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cl := range cells {
		rows[cl.bi*nc+cl.ci].RunCycles += cycles[i]
	}
	return rows, nil
}

// Table1Totals aggregates a Table 1 result set into one row per scope
// (in scope order), summing the transformation statistics with
// core.Stats.Add — the "all benchmarks" summary line of hlobench.
func Table1Totals(rows []Table1Row) []Table1Row {
	byScope := make(map[string]*Table1Row)
	var order []string
	for i := range rows {
		r := &rows[i]
		t, ok := byScope[r.Scope]
		if !ok {
			t = &Table1Row{Name: "total", Scope: r.Scope}
			byScope[r.Scope] = t
			order = append(order, r.Scope)
		}
		t.Stats.Add(&r.Stats)
		t.CompileCost += r.CompileCost
		t.RunCycles += r.RunCycles
	}
	out := make([]Table1Row, 0, len(order))
	for _, s := range order {
		out = append(out, *byScope[s])
	}
	return out
}

// Figure6Row is one benchmark's bar group in Figure 6.
type Figure6Row struct {
	Name  string
	Suite string
	// Speedups relative to the neither-inline-nor-clone build; the
	// baseline compile uses cross-module and profile-based optimization,
	// as in the paper.
	Inline float64
	Clone  float64
	Both   float64
}

// toggleConfigs are the four inline/clone settings of Figures 6 and 7,
// in the paper's presentation order ("neither" first: it is the
// baseline the other three are normalized against).
var toggleConfigs = []struct {
	key           string
	inline, clone bool
}{
	{"neither", false, false},
	{"inline", true, false},
	{"clone", false, true},
	{"both", true, true},
}

// Figure6 measures the relative speedup of inlining, cloning, and both.
// All (benchmark × setting) cells run on the worker pool.
func Figure6() ([]Figure6Row, error) {
	benches := specsuite.All()
	if err := warmTrain("fig6", benches); err != nil {
		return nil, err
	}
	nc := len(toggleConfigs)
	cells := refCells(benches, nc)
	perCell := make([]int64, len(cells))
	label := func(i int) string {
		cl := cells[i]
		return cellLabel("fig6", benches[cl.bi], toggleConfigs[cl.ci].key, cl.vi)
	}
	err := forEachCell(len(cells), label, func(i int, rec *obs.Recorder) error {
		cl := cells[i]
		b, cfg := benches[cl.bi], toggleConfigs[cl.ci]
		opts := driver.DefaultOptions(b.Train)
		opts.HLO.Inline = cfg.inline
		opts.HLO.Clone = cfg.clone
		_, st, err := compileAndRun(b, opts, b.RefVectors()[cl.vi], rec)
		if err != nil {
			return err
		}
		perCell[i] = st.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	cycles := make([]int64, len(benches)*nc)
	for i, cl := range cells {
		cycles[cl.bi*nc+cl.ci] += perCell[i]
	}
	rows := make([]Figure6Row, 0, len(benches))
	for bi, b := range benches {
		base := float64(cycles[bi*nc]) // toggleConfigs[0] is "neither"
		rows = append(rows, Figure6Row{
			Name:   b.Name,
			Suite:  b.Suite,
			Inline: base / float64(cycles[bi*nc+1]),
			Clone:  base / float64(cycles[bi*nc+2]),
			Both:   base / float64(cycles[bi*nc+3]),
		})
	}
	return rows, nil
}

// GeoMeans returns the geometric-mean speedups per suite for a Figure 6
// result set (the paper's "SPECint92"/"SPECint95" summary bars).
func GeoMeans(rows []Figure6Row) map[string]Figure6Row {
	out := make(map[string]Figure6Row)
	prod := map[string]*Figure6Row{}
	count := map[string]int{}
	for _, r := range rows {
		p, ok := prod[r.Suite]
		if !ok {
			p = &Figure6Row{Name: "geomean", Suite: r.Suite, Inline: 1, Clone: 1, Both: 1}
			prod[r.Suite] = p
		}
		p.Inline *= r.Inline
		p.Clone *= r.Clone
		p.Both *= r.Both
		count[r.Suite]++
	}
	for suite, p := range prod {
		n := float64(count[suite])
		out[suite] = Figure6Row{
			Name:   "geomean",
			Suite:  suite,
			Inline: nthRoot(p.Inline, n),
			Clone:  nthRoot(p.Clone, n),
			Both:   nthRoot(p.Both, n),
		}
	}
	return out
}

// Figure7Row is one benchmark × configuration sample of the simulation
// study.
type Figure7Row struct {
	Name   string
	Config string // neither / inline / clone / both

	RelCycles   float64 // relative to the neither build
	CPI         float64
	RelInstrs   float64
	RelIAcc     float64
	IMissRate   float64 // misses per 1000 accesses
	RelDAcc     float64
	DMissRate   float64 // misses per 100 accesses
	RelBranches float64
	BranchMiss  float64 // mispredicts per predicted-capable branch
}

// Figure7 runs the machine-level study over the SPEC95-like subset with
// simplified (train-sized) inputs, as the paper did ("simplified input
// sets designed to closely mimic the behavior of the benchmark").
func Figure7() ([]Figure7Row, error) {
	names := specsuite.Figure7Names()
	benches := make([]*specsuite.Benchmark, len(names))
	for i, name := range names {
		b, err := specsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	if err := warmTrain("fig7", benches); err != nil {
		return nil, err
	}
	nc := len(toggleConfigs)
	stats := make([]*pa8000.Stats, len(benches)*nc)
	label := func(i int) string {
		return "cell/fig7/" + benches[i/nc].Name + "/" + toggleConfigs[i%nc].key
	}
	err := forEachCell(len(stats), label, func(i int, rec *obs.Recorder) error {
		b, cfg := benches[i/nc], toggleConfigs[i%nc]
		opts := driver.DefaultOptions(b.Train)
		opts.HLO.Inline = cfg.inline
		opts.HLO.Clone = cfg.clone
		opts.Obs = rec
		opts.Cache = cache
		c, err := driver.Compile(b.Sources, opts)
		if err != nil {
			return err
		}
		st, err := c.Run(opts, b.Train) // simplified inputs
		if err != nil {
			return err
		}
		stats[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Figure7Row, 0, len(stats))
	for bi, b := range benches {
		base := stats[bi*nc] // toggleConfigs[0] is "neither"
		for ci, cfg := range toggleConfigs {
			st := stats[bi*nc+ci]
			rows = append(rows, Figure7Row{
				Name:        b.Name,
				Config:      cfg.key,
				RelCycles:   ratio(st.Cycles, base.Cycles),
				CPI:         st.CPI(),
				RelInstrs:   ratio(st.Instrs, base.Instrs),
				RelIAcc:     ratio(st.IAccesses, base.IAccesses),
				IMissRate:   st.IMissRate() * 1000,
				RelDAcc:     ratio(st.DAccesses, base.DAccesses),
				DMissRate:   st.DMissRate() * 100,
				RelBranches: ratio(st.Branches, base.Branches),
				BranchMiss:  st.BranchMissRate(),
			})
		}
	}
	return rows, nil
}

// Figure8Point is one sample of the incremental-benefit sweep.
type Figure8Point struct {
	Budget    int
	Ops       int   // inline + clone-replacement operations allowed
	RunCycles int64 // resulting run time
}

// Figure8 reproduces the incremental-benefit experiment on 022.li: for
// each budget level, HLO is artificially stopped after N operations and
// the resulting binary is timed.
func Figure8(budgets []int, maxPoints int) ([]Figure8Point, error) {
	if len(budgets) == 0 {
		budgets = []int{25, 100, 200, 1000}
	}
	b, err := specsuite.ByName("022.li")
	if err != nil {
		return nil, err
	}
	if err := warmTrain("fig8", []*specsuite.Benchmark{b}); err != nil {
		return nil, err
	}
	// Phase A, one task per budget: learn how many operations the budget
	// allows in total, and cross-check the count against the remark
	// stream: every counted operation must have exactly one accepted
	// inline or clone remark (the stream is the ground truth for the
	// curve's x axis). Each task uses a local throwaway recorder for the
	// cross-check — these full compiles have never fed the attached
	// recorder, only the per-point compiles of phase B do.
	totals := make([]int, len(budgets))
	err = par.Do(workers, len(budgets), func(i int) error {
		full := driver.DefaultOptions(b.Train)
		full.HLO.Budget = budgets[i]
		rec := obs.New()
		full.Obs = rec
		full.Cache = cache
		c, err := driver.Compile(b.Sources, full)
		if err != nil {
			return err
		}
		total := c.Stats.Ops
		acceptedOps := 0
		for _, rm := range rec.Remarks() {
			if rm.Accepted && (rm.Kind == core.RemarkInline || rm.Kind == core.RemarkClone) {
				acceptedOps++
			}
		}
		if acceptedOps != total {
			return fmt.Errorf("experiments: figure 8 budget %d: remark stream has %d accepted inline/clone remarks, Stats.Ops = %d", budgets[i], acceptedOps, total)
		}
		totals[i] = total
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase B: enumerate the sample points budget-major (the rendering
	// order) and fan every (budget, ops) compile out over the pool.
	var points []Figure8Point
	for bi, budget := range budgets {
		total := totals[bi]
		stride := 1
		if maxPoints > 0 && total > maxPoints {
			stride = (total + maxPoints - 1) / maxPoints
		}
		for ops := 0; ; ops += stride {
			if ops > total {
				ops = total
			}
			points = append(points, Figure8Point{Budget: budget, Ops: ops})
			if ops >= total {
				break
			}
		}
	}
	label := func(i int) string {
		return fmt.Sprintf("cell/fig8/b%d/ops%d", points[i].Budget, points[i].Ops)
	}
	err = forEachCell(len(points), label, func(i int, rec *obs.Recorder) error {
		pt := &points[i]
		opts := driver.DefaultOptions(b.Train)
		opts.HLO.Budget = pt.Budget
		opts.HLO.StopAfter = pt.Ops
		if pt.Ops == 0 {
			// StopAfter=0 means unlimited; use inline/clone off for
			// the zero-operations point instead.
			opts.HLO.Inline = false
			opts.HLO.Clone = false
		}
		_, st, err := compileAndRun(b, opts, b.Ref, rec)
		if err != nil {
			return err
		}
		pt.RunCycles = st.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func nthRoot(x, n float64) float64 {
	if x <= 0 || n <= 0 {
		return 0
	}
	return math.Pow(x, 1/n)
}
