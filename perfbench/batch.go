package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pa8000"
	"repro/internal/randprog"
	"repro/internal/specsuite"
)

type batchKind int

const (
	paperEval batchKind = iota
	largePrograms
)

// paperPassSeconds is the nominal length of one serial pass over the
// paper's matrix; --seconds buys whole passes of it, at least one. A
// run pools its passes' latencies, so at the usual 25 s the tail rests
// on two passes' cells.
const paperPassSeconds = 15

// largeProgramsPerSecond sizes the large-programs deck from --seconds.
const largeProgramsPerSecond = 38

// batchOp is one op of a batch deck: one driver.CompileCtx plus one
// Compilation.RunCtx, as an hlobench cell or an hlocc build-and-run.
type batchOp struct {
	label   string
	sources []string
	srcKey  string // content hash of sources: what the driver cache keys on
	opts    driver.Options
	inputs  []int64
	refKey  string // (sources, inputs): what the oracle keys on
	// cacheGroup numbers the driver.Cache the op runs against:
	// consecutive ops of one group share a cache (a paper-eval pass),
	// and each group starts from a fresh one.
	cacheGroup int
	// pass numbers the paper-eval pass over the matrix the op belongs
	// to (0 on large-programs); repeated simulations are counted within
	// one pass.
	pass int
}

// batch is the paper-eval and large-programs workload: ops issued one
// at a time, in the seeded deck order.
type batch struct {
	kind batchKind
	ops  []batchOp
	refs map[string]*reference // by refKey
	// frontMiss and trainMiss mark the ops whose driver.Cache lookup is
	// the first of its key in that cache's lifetime: the ops that parse,
	// or that run the training build. Ops are issued one at a time, so
	// this follows from the deck order.
	frontMiss, trainMiss []bool
	cells                map[string]int // paper-eval: cells per experiment
}

func (b *batch) prepare(ctx context.Context, seed int64, seconds int) error {
	rng := rand.New(rand.NewSource(seed))
	switch b.kind {
	case paperEval:
		cells, err := paperCells()
		if err != nil {
			return err
		}
		b.cells = map[string]int{}
		for _, op := range cells {
			b.cells[experimentOf(op.label)]++
		}
		passes := max(1, (seconds+paperPassSeconds/2)/paperPassSeconds)
		for p := range passes {
			order := rng.Perm(len(cells))
			for _, i := range order {
				op := cells[i]
				op.cacheGroup, op.pass = p, p
				b.ops = append(b.ops, op)
			}
		}
	case largePrograms:
		var err error
		b.ops, b.refs, err = largeDeck(ctx, rng, seconds*largeProgramsPerSecond)
		if err != nil {
			return err
		}
	}
	b.markMisses()
	if b.refs != nil {
		return nil
	}
	var err error
	b.refs, err = references(ctx, b.ops)
	return err
}

func (b *batch) markMisses() {
	b.frontMiss = make([]bool, len(b.ops))
	b.trainMiss = make([]bool, len(b.ops))
	var seen map[string]bool
	for i := range b.ops {
		op := &b.ops[i]
		if i == 0 || op.cacheGroup != b.ops[i-1].cacheGroup {
			seen = map[string]bool{}
		}
		b.frontMiss[i] = !seen["f"+op.srcKey]
		seen["f"+op.srcKey] = true
		if op.opts.Profile {
			tk := "t" + op.srcKey + fmt.Sprint(op.opts.TrainInputs)
			b.trainMiss[i] = !seen[tk]
			seen[tk] = true
		}
	}
}

// paperCells is the evaluation matrix of `hlobench -table1 -fig6 -fig7
// -fig8`: Table 1's scopes over its benchmarks, Figure 6's inline/clone
// toggles over all benchmarks, Figure 7's toggles on train inputs, and
// Figure 8's stop-after points on 022.li. Benchmarks with a split
// reference deck get one cell per vector, as the harness does.
func paperCells() ([]batchOp, error) {
	var ops []batchOp
	cell := func(label string, b *specsuite.Benchmark, opts driver.Options, inputs []int64) {
		opts.TrainInputs = b.Train
		ops = append(ops, batchOp{
			label:   label,
			sources: b.Sources,
			srcKey:  sourceKey(b.Sources),
			opts:    opts,
			inputs:  inputs,
			refKey:  refKey(b.Sources, inputs),
		})
	}
	vecLabel := func(b *specsuite.Benchmark, vi int) string {
		if len(b.RefVectors()) > 1 {
			return fmt.Sprintf("/v%d", vi)
		}
		return ""
	}
	scopes := []struct {
		name           string
		cross, profile bool
	}{{"base", false, false}, {"c", true, false}, {"p", false, true}, {"cp", true, true}}
	toggles := []struct {
		name          string
		inline, clone bool
	}{{"neither", false, false}, {"inline", true, false}, {"clone", false, true}, {"both", true, true}}

	table1, err := benchmarks(specsuite.Table1Names())
	if err != nil {
		return nil, err
	}
	for _, b := range table1 {
		for _, sc := range scopes {
			for vi, in := range b.RefVectors() {
				opts := driver.Options{CrossModule: sc.cross, Profile: sc.profile, HLO: core.DefaultOptions()}
				cell("table1/"+b.Name+"/"+sc.name+vecLabel(b, vi), b, opts, in)
			}
		}
	}
	for _, b := range specsuite.All() {
		for _, tg := range toggles {
			for vi, in := range b.RefVectors() {
				opts := driver.DefaultOptions(b.Train)
				opts.HLO.Inline, opts.HLO.Clone = tg.inline, tg.clone
				cell("fig6/"+b.Name+"/"+tg.name+vecLabel(b, vi), b, opts, in)
			}
		}
	}
	fig7, err := benchmarks(specsuite.Figure7Names())
	if err != nil {
		return nil, err
	}
	for _, b := range fig7 {
		for _, tg := range toggles {
			opts := driver.DefaultOptions(b.Train)
			opts.HLO.Inline, opts.HLO.Clone = tg.inline, tg.clone
			cell("fig7/"+b.Name+"/"+tg.name, b, opts, b.Train)
		}
	}
	points, err := figure8Points()
	if err != nil {
		return nil, err
	}
	li, err := specsuite.ByName("022.li")
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		opts := driver.DefaultOptions(li.Train)
		opts.HLO.Budget = pt.budget
		opts.HLO.StopAfter = pt.ops
		if pt.ops == 0 {
			// StopAfter 0 means unlimited: the zero point turns both
			// transformations off instead.
			opts.HLO.Inline, opts.HLO.Clone = false, false
		}
		cell(fmt.Sprintf("fig8/b%d/ops%d", pt.budget, pt.ops), li, opts, li.Ref)
	}
	return ops, nil
}

type fig8Point struct{ budget, ops int }

// figure8Points enumerates Figure 8's samples as hlobench does (-fig8
// with its default of at most 12 points per budget curve): a full build
// at each budget learns how many operations it performs, and the curve
// samples that range at an even stride. Part of deck construction.
func figure8Points() ([]fig8Point, error) {
	const maxPoints = 12
	li, err := specsuite.ByName("022.li")
	if err != nil {
		return nil, err
	}
	cache := driver.NewCache()
	var points []fig8Point
	for _, budget := range []int{25, 100, 200, 1000} {
		opts := driver.DefaultOptions(li.Train)
		opts.HLO.Budget = budget
		opts.Cache = cache
		c, err := driver.Compile(li.Sources, opts)
		if err != nil {
			return nil, fmt.Errorf("figure 8 budget %d: %w", budget, err)
		}
		total := c.Stats.Ops
		stride := 1
		if total > maxPoints {
			stride = (total + maxPoints - 1) / maxPoints
		}
		for ops := 0; ; ops += stride {
			ops = min(ops, total)
			points = append(points, fig8Point{budget, ops})
			if ops >= total {
				break
			}
		}
	}
	return points, nil
}

func benchmarks(names []string) ([]*specsuite.Benchmark, error) {
	out := make([]*specsuite.Benchmark, len(names))
	for i, n := range names {
		b, err := specsuite.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func experimentOf(label string) string {
	exp, _, _ := strings.Cut(label, "/")
	return exp
}

// largeDeck draws n distinct randprog programs in the production shape
// (BoundedCallDepth), with their references. The module and function
// maxima cycle over a fixed grid, so every deck spans the same size
// axis. randprog draws the actual shape below those maxima, and one
// program's compile cost and run time vary several-fold with it and
// with what its main reaches; so each grid point draws several
// programs and keeps the most typical one for its grid cell: nearest,
// in log compile cost (Σ size² before HLO) and log interpreter steps,
// to the median of all the cell's draws. Decks of different seeds then
// hold like work. The seed picks every program, its training and
// reference inputs, and the deck order. Every program is built at the
// paper's peak configuration and run once, with a cache of its own.
func largeDeck(ctx context.Context, rng *rand.Rand, n int) ([]batchOp, map[string]*reference, error) {
	const (
		minModules, maxModules = 1, 4
		minFuncs, maxFuncs     = 2, 6
		candidates             = 9
	)
	nm := maxModules - minModules + 1
	nf := maxFuncs - minFuncs + 1
	draw := func() []int64 {
		in := make([]int64, randprog.MinInputs)
		for j := range in {
			in[j] = rng.Int63n(16)
		}
		return in
	}
	all := make([]batchOp, 0, n*candidates)
	for i := range n {
		cfg := randprog.Config{
			Modules:          minModules + i%nm,
			Funcs:            minFuncs + (i/nm)%nf,
			Stmts:            6,
			Depth:            2,
			ExprDepth:        3,
			BoundedCallDepth: true,
		}
		for range candidates {
			seed := rng.Int63()
			srcs := randprog.Generate(seed, cfg)
			train, ref := draw(), draw()
			all = append(all, batchOp{
				label:   fmt.Sprintf("large/m%d-f%d/%x", cfg.Modules, cfg.Funcs, seed),
				sources: srcs,
				srcKey:  sourceKey(srcs),
				opts:    driver.DefaultOptions(train),
				inputs:  ref,
				refKey:  refKey(srcs, ref),
			})
		}
	}
	refs, err := references(ctx, all)
	if err != nil {
		return nil, nil, err
	}
	type point struct{ cost, steps float64 }
	at := func(op *batchOp) point {
		r := refs[op.refKey]
		return point{math.Log(float64(r.cost) + 1), math.Log(float64(r.res.Steps) + 1)}
	}
	// Per grid cell: the median draw and the spread of the draws.
	cells := nm * nf
	center, scale := make([]point, cells), make([]point, cells)
	for c := range cells {
		var cs, ss []float64
		for i := c; i < n; i += cells {
			for k := range candidates {
				p := at(&all[i*candidates+k])
				cs, ss = append(cs, p.cost), append(ss, p.steps)
			}
		}
		if len(cs) == 0 {
			continue
		}
		center[c] = point{median(cs), median(ss)}
		scale[c] = point{max(mad(cs), 1e-9), max(mad(ss), 1e-9)}
	}
	ops := make([]batchOp, n)
	for i := range ops {
		c, best := i%cells, math.Inf(1)
		for k := range candidates {
			op := &all[i*candidates+k]
			p := at(op)
			dc := (p.cost - center[c].cost) / scale[c].cost
			ds := (p.steps - center[c].steps) / scale[c].steps
			if d := dc*dc + ds*ds; d < best {
				best, ops[i] = d, *op
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	kept := map[string]*reference{}
	for i := range ops {
		ops[i].cacheGroup = i
		kept[ops[i].refKey] = refs[ops[i].refKey]
	}
	return ops, kept, nil
}

// reference is the IR interpreter's run of one unoptimized program on
// one input, with the program's shape.
type reference struct {
	res    *interp.Result
	irSize int   // IR instructions before HLO
	cost   int64 // Σ size² over functions before HLO
	funcs  int
}

// references runs the IR interpreter on the unoptimized program for
// every distinct (sources, inputs) pair of ops, spread over the host's
// CPUs.
func references(ctx context.Context, ops []batchOp) (map[string]*reference, error) {
	var jobs []*batchOp
	refs := map[string]*reference{}
	for i := range ops {
		if _, ok := refs[ops[i].refKey]; !ok {
			refs[ops[i].refKey] = nil
			jobs = append(jobs, &ops[i])
		}
	}
	out := make([]reference, len(jobs))
	errs := make([]error, len(jobs))
	parallel(len(jobs), func(i int) {
		op := jobs[i]
		p, err := driver.Frontend(op.sources)
		if err != nil {
			errs[i] = fmt.Errorf("%s: reference front end: %w", op.label, err)
			return
		}
		out[i].irSize = p.TotalSize()
		p.Funcs(func(f *ir.Func) bool {
			s := int64(f.Size())
			out[i].cost += s * s
			out[i].funcs++
			return true
		})
		out[i].res, err = interp.RunCtx(ctx, p, interp.Options{Inputs: op.inputs})
		if err != nil {
			errs[i] = fmt.Errorf("%s: reference run: %w", op.label, err)
		}
	})
	for i, op := range jobs {
		refs[op.refKey] = &out[i]
	}
	return refs, errors.Join(errs...)
}

func (b *batch) describe() {
	fmt.Printf("deck: %d ops", len(b.ops))
	if b.kind == paperEval {
		passes := b.ops[len(b.ops)-1].pass + 1
		fmt.Printf(": passes=%d over the %d cells (table1 %d, fig6 %d, fig7 %d, fig8 %d), one at a time, fresh driver.Cache per pass\n",
			passes, len(b.ops)/passes, b.cells["table1"], b.cells["fig6"], b.cells["fig7"], b.cells["fig8"])
	} else {
		fmt.Printf(", one at a time, driver.DefaultOptions, a fresh driver.Cache per program\n")
	}
	var irs, mods, fns []float64
	seen := map[string]bool{}
	for _, op := range b.ops {
		if !seen[op.srcKey] {
			seen[op.srcKey] = true
			ref := b.refs[op.refKey]
			irs = append(irs, float64(ref.irSize))
			mods = append(mods, float64(len(op.sources)))
			fns = append(fns, float64(ref.funcs))
		}
	}
	fmt.Printf("programs: %d distinct; IR size %g..%g (median %g); modules %g..%g; functions %g..%g\n",
		len(irs), slices.Min(irs), slices.Max(irs), median(irs),
		slices.Min(mods), slices.Max(mods), slices.Min(fns), slices.Max(fns))
	fmt.Printf("reference runs: %d distinct (program, input) pairs for %d ops\n", len(b.refs), len(b.ops))
}

// opOut is what one op produced.
type opOut struct {
	lat      time.Duration
	stats    core.Stats
	codeSize int
	sim      *pa8000.Stats
	// trainSteps is the training run's interpreter step count (PBO
	// builds only).
	trainSteps int64
	err        error
}

// deckRun is one pass over the deck.
type deckRun struct {
	outs []opOut
	wall time.Duration
	// cache is the last op's cache, kept alive for the heap reading.
	cache *driver.Cache
}

// runDeck issues the deck's ops one at a time through
// driver.CompileCtx and Compilation.RunCtx.
func (b *batch) runDeck(ctx context.Context) *deckRun {
	return b.runDeckWith(ctx, func(_ int, op *batchOp, cache *driver.Cache) opOut {
		return compileAndRun(ctx, op, cache)
	})
}

// runDeckWith issues the deck's ops one at a time, performing each
// with do, and times them.
func (b *batch) runDeckWith(ctx context.Context, do func(i int, op *batchOp, cache *driver.Cache) opOut) *deckRun {
	run := &deckRun{outs: make([]opOut, len(b.ops))}
	var cache *driver.Cache
	start := time.Now()
	for i := range b.ops {
		op := &b.ops[i]
		if i == 0 || op.cacheGroup != b.ops[i-1].cacheGroup {
			cache = driver.NewCache()
		}
		t0 := time.Now()
		run.outs[i] = do(i, op, cache)
		run.outs[i].lat = time.Since(t0)
	}
	run.wall = time.Since(start)
	run.cache = cache
	return run
}

// compileAndRun is one untraced op.
func compileAndRun(ctx context.Context, op *batchOp, cache *driver.Cache) opOut {
	opts := op.opts
	opts.Cache = cache
	c, err := driver.CompileCtx(ctx, op.sources, opts)
	if err != nil {
		return opOut{err: err}
	}
	st, err := c.RunCtx(ctx, opts, op.inputs)
	out := opOut{stats: c.Stats, codeSize: c.CodeSize, sim: st, err: err}
	if c.TrainResult != nil {
		out.trainSteps = c.TrainResult.Steps
	}
	return out
}

// check compares an op's simulated output and exit code with the
// interpreter's reference.
func (b *batch) check(i int, out *opOut) error {
	if out.err != nil {
		return out.err
	}
	ref := b.refs[b.ops[i].refKey].res
	if out.sim.ExitCode != ref.ExitCode || !slices.Equal(out.sim.Output, ref.Output) {
		return fmt.Errorf("output mismatch: exit %d output %v, reference exit %d output %v",
			out.sim.ExitCode, out.sim.Output, ref.ExitCode, ref.Output)
	}
	return nil
}

// checkAll applies check to every op and prints each failure.
func (b *batch) checkAll(run *deckRun) (failed int) {
	for i := range run.outs {
		if err := b.check(i, &run.outs[i]); err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", b.ops[i].label, err)
		}
	}
	return failed
}

func (b *batch) measure(ctx context.Context, rep *report) (int, int, error) {
	runtime.GC()
	run := b.runDeck(ctx)
	heap := liveHeapMB()
	runtime.KeepAlive(run.cache)
	failed := b.checkAll(run)

	n := len(b.ops)
	lat := make([]float64, n)
	var cycles, sizes []float64
	for i, o := range run.outs {
		lat[i] = ms(o.lat)
		if o.err == nil {
			cycles = append(cycles, float64(o.sim.Cycles))
			sizes = append(sizes, float64(o.codeSize))
		}
	}
	rep.add("ops_per_s", float64(n)/run.wall.Seconds(), "1/s",
		fmt.Sprintf("%d ops in %.3f s", n, run.wall.Seconds()))
	addLatencies(rep, "latency_ms", lat)
	rep.add("heap_live_mb", heap, "MB", "after a GC at the end of the deck")
	rep.add("cycles_geomean", geomean(cycles), "cycles", fmt.Sprintf("over %d runs", len(cycles)))
	rep.add("code_size_geomean", geomean(sizes), "instrs", fmt.Sprintf("over %d builds", len(sizes)))
	return n, failed, nil
}

// liveHeapMB is the heap still in use after a collection. Two
// collections run, so objects parked in sync.Pools (which survive the
// first as victims) are not counted as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func sourceKey(sources []string) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range sources {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return string(h.Sum(nil))
}

func refKey(sources []string, inputs []int64) string {
	return sourceKey(sources) + fmt.Sprint(inputs)
}
