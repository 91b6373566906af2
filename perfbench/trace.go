package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/pa8000"
	"repro/internal/profile"
)

// span is one timed call into a layer, kept in memory during the
// traced pass and written out as JSON lines at the end.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // deck index of the op
	Name   string `json:"name"`   // "<layer>/<call>", or the op label at the root
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer records spans relative to the start of the traced pass.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Dur = now - t.spans[id-1].Start
}

// add records a span whose times were measured elsewhere (the daemon's
// queue and service split, which arrive as response headers).
func (t *tracer) add(op, parent int, name string, start, dur int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, Dur: dur})
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names of the traced composition; the layer is the part before
// the slash.
const (
	spanFrontend = "driver/Cache.Frontend"
	spanTrain    = "driver/Cache.TrainProfile"
	spanAttach   = "profile/Data.Attach"
	spanHLO      = "core/RunCheckedCtx"
	spanVerify   = "ir/Program.Verify"
	spanBackend  = "backend/LinkLayoutObs"
	spanSim      = "pa8000/RunCtx"
)

// composeTraced performs one op as the public calls driver.CompileCtx
// makes, in its order, each under a span, then simulates the result.
// It must reproduce compileAndRun's statistics exactly. The machine
// program is returned so the caller can key the simulation outside
// the op's span.
func composeTraced(ctx context.Context, op *batchOp, cache *driver.Cache, tr *tracer, i int) (opOut, *pa8000.Program) {
	root := tr.begin(i, 0, op.label)
	defer tr.end(root)
	call := func(name string, f func() error) error {
		id := tr.begin(i, root, name)
		defer tr.end(id)
		return f()
	}
	opts := op.opts
	var out opOut
	var p *ir.Program
	err := call(spanFrontend, func() (err error) {
		p, err = cache.Frontend(op.sources)
		return err
	})
	if err != nil {
		return out.fail(err), nil
	}
	if opts.Profile {
		var db *profile.Data
		err := call(spanTrain, func() (err error) {
			db, err = cache.TrainProfile(ctx, op.sources, opts.TrainInputs, opts.ExtraTrainInputs)
			return err
		})
		if err != nil {
			return out.fail(err), nil
		}
		call(spanAttach, func() error {
			db.Attach(p)
			return nil
		})
	}
	hlo := func(scope core.Scope) error {
		return call(spanHLO, func() error {
			st, err := core.RunCheckedCtx(ctx, p, scope, opts.HLO)
			if st != nil {
				out.stats.Add(st)
			}
			return err
		})
	}
	if opts.CrossModule {
		err = hlo(core.WholeProgram())
	} else {
		for _, m := range p.Modules {
			if err = hlo(core.SingleModule(m.Name)); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = call(spanVerify, p.Verify)
	}
	var mp *pa8000.Program
	if err == nil {
		err = call(spanBackend, func() (err error) {
			mp, err = backend.LinkLayoutObs(p, opts.Layout, nil)
			return err
		})
	}
	if err != nil {
		return out.fail(err), nil
	}
	out.codeSize = backend.CodeSize(mp)
	err = call(spanSim, func() (err error) {
		out.sim, err = pa8000.RunCtx(ctx, mp, opts.Machine, op.inputs)
		return err
	})
	return out.fail(err), mp
}

func (o opOut) fail(err error) opOut { o.err = err; return o }

// simKey identifies one simulation: the linked machine program and its
// inputs, the things a simulation's Stats depend on.
func simKey(mp *pa8000.Program, inputs []int64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(mp.Code)))
	for _, in := range mp.Code {
		put(int64(in.Op))
		put(int64(in.Rd)<<16 | int64(in.Rs)<<8 | int64(in.Rt))
		put(in.Imm)
		put(int64(in.Target))
		put(int64(len(in.Sym)))
		h.Write([]byte(in.Sym))
	}
	put(int64(mp.Entry))
	put(mp.DataLen)
	for _, d := range mp.InitData {
		put(d.Addr)
		put(int64(len(d.Vals)))
		for _, v := range d.Vals {
			put(v)
		}
	}
	put(int64(len(inputs)))
	for _, v := range inputs {
		put(v)
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// sameOut reports whether the traced op reproduced the untraced op
// exactly: HLO statistics, code size, and every simulator counter and
// output word.
func sameOut(a, b *opOut) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return true
	}
	if a.stats != b.stats || a.codeSize != b.codeSize {
		return false
	}
	x, y := a.sim, b.sim
	return x.Cycles == y.Cycles && x.Instrs == y.Instrs &&
		x.IAccesses == y.IAccesses && x.IMisses == y.IMisses &&
		x.DAccesses == y.DAccesses && x.DMisses == y.DMisses &&
		x.Branches == y.Branches && x.Predicted == y.Predicted &&
		x.Mispredicts == y.Mispredicts && x.Calls == y.Calls && x.Returns == y.Returns &&
		x.ExitCode == y.ExitCode && slices.Equal(x.Output, y.Output)
}

func (b *batch) measureTraced(ctx context.Context, rep *report, spansPath string) (int, int, error) {
	runtime.GC()
	plain := b.runDeck(ctx)
	runtime.GC()
	tr := newTracer()
	traced, keys := b.runTracedDeck(ctx, tr)
	if err := tr.write(spansPath); err != nil {
		return 0, 0, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)

	failed := 0
	for i := range b.ops {
		err := b.check(i, &traced.outs[i])
		if err == nil {
			err = b.check(i, &plain.outs[i])
		}
		if err == nil && !sameOut(&plain.outs[i], &traced.outs[i]) {
			err = fmt.Errorf("traced composition diverged from driver.CompileCtx")
		}
		if err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", b.ops[i].label, err)
		}
	}
	b.layerMetrics(rep, plain, traced, tr, keys)
	return len(b.ops), failed, nil
}

// runTracedDeck is runDeck with the traced composition, also returning
// each op's simulation key.
func (b *batch) runTracedDeck(ctx context.Context, tr *tracer) (*deckRun, [][32]byte) {
	keys := make([][32]byte, len(b.ops))
	run := b.runDeckWith(ctx, func(i int, op *batchOp, cache *driver.Cache) opOut {
		out, mp := composeTraced(ctx, op, cache, tr, i)
		if mp != nil {
			keys[i] = simKey(mp, op.inputs)
		}
		return out
	})
	return run, keys
}

// layerMetrics derives the per-layer metrics of a batch workload from
// the traced pass's spans and the untraced pass's results.
func (b *batch) layerMetrics(rep *report, plain, traced *deckRun, tr *tracer, keys [][32]byte) {
	sum := map[string]int64{} // ns per span name, children of op roots
	rootNS := int64(0)        // ns in op root spans
	trainMissNS := int64(0)   // ns in training calls that filled the cache
	repeatNS := int64(0)      // ns simulating a (program, input) seen before
	simNS := make([]int64, len(b.ops))
	for _, s := range tr.spans {
		if s.Parent == 0 {
			rootNS += s.Dur
			continue
		}
		sum[s.Name] += s.Dur
		switch s.Name {
		case spanTrain:
			if b.trainMiss[s.Op] {
				trainMissNS += s.Dur
			}
		case spanSim:
			simNS[s.Op] += s.Dur
		}
	}
	seen := map[[32]byte]bool{}
	var wc workCounts
	var distinct, steps int64
	fronts, frontHits, trains, trainHits := 0, 0, 0, 0
	for i := range b.ops {
		o := &plain.outs[i]
		if i > 0 && b.ops[i].pass != b.ops[i-1].pass {
			seen = map[[32]byte]bool{}
		}
		if o.err != nil {
			continue
		}
		wc.add(&o.stats, o.codeSize, o.sim)
		if !seen[keys[i]] {
			seen[keys[i]] = true
			distinct++
		} else {
			repeatNS += simNS[i]
		}
		fronts++
		if !b.frontMiss[i] {
			frontHits++
		}
		if b.ops[i].opts.Profile {
			trains++
			if b.trainMiss[i] {
				steps += o.trainSteps
			} else {
				trainHits++
			}
		}
	}
	layers := sum[spanFrontend] + sum[spanTrain] + sum[spanHLO] + sum[spanBackend] + sum[spanSim]
	nsMS := func(ns int64) float64 { return float64(ns) / 1e6 }

	rep.add("pa8000.ms", nsMS(sum[spanSim]), "ms", "pa8000.RunCtx")
	rep.add("pa8000.minstr_per_s", ratio(float64(wc.instrs)*1e3, float64(sum[spanSim])), "Minstr/s", "")
	rep.add("pa8000.distinct_ratio", ratio(float64(distinct), float64(wc.sims)), "ratio",
		fmt.Sprintf("%d distinct (machine program, input) of %d, counted per pass", distinct, wc.sims))
	rep.add("pa8000.repeat_ms", nsMS(repeatNS), "ms", "simulating a pair seen before in the pass")
	rep.add("core.ms", nsMS(sum[spanHLO]), "ms", "core.RunCheckedCtx")
	rep.add("core.ns_per_cost", ratio(float64(sum[spanHLO]), float64(wc.costBefore)), "ns/cost",
		"HLO busy ns per size² unit before HLO")
	rep.add("driver.frontend_ms", nsMS(sum[spanFrontend]), "ms", "Cache.Frontend")
	rep.add("driver.frontend_hit_ratio", ratio(float64(frontHits), float64(fronts)), "ratio",
		fmt.Sprintf("%d of %d", frontHits, fronts))
	rep.add("driver.train_ms", nsMS(sum[spanTrain]), "ms", "Cache.TrainProfile")
	rep.add("driver.train_hit_ratio", ratio(float64(trainHits), float64(trains)), "ratio",
		fmt.Sprintf("%d of %d", trainHits, trains))
	rep.add("driver.self_ms", nsMS(rootNS-layers), "ms", "op time outside the named layers")
	rep.add("interp.steps", float64(steps), "count", "training runs that filled the cache")
	rep.add("interp.msteps_per_s", ratio(float64(steps)*1e3, float64(trainMissNS)), "Msteps/s", "")
	rep.add("backend.ms", nsMS(sum[spanBackend]), "ms", "backend.LinkLayoutObs")
	wc.report(rep, "every op")
	addServeNA(rep)
	rep.add("trace.overhead_ratio", ratio(traced.wall.Seconds(), plain.wall.Seconds()), "ratio",
		fmt.Sprintf("traced %.3f s / untraced %.3f s", traced.wall.Seconds(), plain.wall.Seconds()))
}

// workCounts sums the exact work counts of builds and simulations; a
// change that keeps HLO decisions leaves every one of them unchanged.
type workCounts struct {
	inlines, clones, passes           int64
	costBefore, sizeBefore, sizeAfter int64
	codeInstrs, sims, instrs          int64
}

func (w *workCounts) add(st *core.Stats, codeSize int, sim *pa8000.Stats) {
	w.inlines += int64(st.Inlines)
	w.clones += int64(st.Clones)
	w.passes += int64(st.Passes)
	w.costBefore += st.CostBefore
	w.sizeBefore += int64(st.SizeBefore)
	w.sizeAfter += int64(st.SizeAfter)
	w.codeInstrs += int64(codeSize)
	if sim != nil {
		w.sims++
		w.instrs += sim.Instrs
	}
}

// report adds the count metrics; of names the ops counted.
func (w *workCounts) report(rep *report, of string) {
	rep.add("pa8000.instrs", float64(w.instrs), "count", "instructions retired, "+of)
	rep.add("pa8000.sims", float64(w.sims), "count", of)
	rep.add("core.inlines", float64(w.inlines), "count", of)
	rep.add("core.clones", float64(w.clones), "count", of)
	rep.add("core.passes", float64(w.passes), "count", of)
	rep.add("core.cost_before", float64(w.costBefore), "count", "Σ size² before HLO, "+of)
	rep.add("core.size_growth", ratio(float64(w.sizeAfter), float64(w.sizeBefore)), "ratio",
		"IR size after / before HLO, "+of)
	rep.add("backend.code_instrs", float64(w.codeInstrs), "count", "Σ machine instructions linked, "+of)
}

// addServeNA reports the daemon-only layers as zero on a batch
// workload, which never goes through serve or cas.
func addServeNA(rep *report) {
	for _, n := range []string{"serve.queue_ms_p50", "serve.queue_ms_tail", "serve.service_ms_p50",
		"serve.service_ms_tail", "serve.overhead_ms_p50", "cas.hit_ms_p50"} {
		rep.add(n, 0, "ms", "n/a: no daemon in this workload")
	}
	rep.add("serve.rejected", 0, "count", "n/a: no daemon in this workload")
	rep.add("cas.hit_ratio", 0, "ratio", "n/a: no daemon in this workload")
	rep.add("cas.store_mb", 0, "MB", "n/a: no daemon in this workload")
}
