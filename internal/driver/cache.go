package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cas"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/profile"
)

// Cache memoizes three deterministic stages of compiling and running:
// the front end (parse, check, lower — identical for every scope and
// budget of the same sources), the training run (the instrumented
// build and interpreter execution depend only on the sources and
// training inputs, so the "p" and "cp" configurations of one benchmark
// can share it), and the simulation (Stats depend only on the linked
// program, its inputs and the machine configuration, all digested by
// pa8000.RunKey, so two option sets that link the same program share
// one run). The experiment harness compiles every benchmark under many
// configurations; with a cache the frontend and training work is done
// once per benchmark instead of once per cell, and each distinct run
// is simulated once.
//
// The front end and training run before HLO, so nothing that depends
// on HLO's options is memoized there; the simulation is keyed on the
// linked program itself, not on the options that built it. The
// daemon's rendered responses live in the serve layer, keyed on
// endpoint and request body (serve.respKey).
//
// Each stage is one memo.Group, so concurrent requesters of a key share
// one fill, and a fill that dies of a context error is never kept.
// Cached front-end output is pristine: every compilation gets a fresh
// deep copy (ir.Program.Clone), so concurrent compilations never share
// mutable IR; only the training run reads the cached program itself.
// Cached Stats are never handed out either: every caller, the filling
// one included, gets its own copy. Cached profile databases are shared
// without copying — profile.Data.Attach only reads the database. A nil
// *Cache is valid and disables memoization.
//
// Hits are observationally identical to misses apart from wall time and
// flight-recorder attribution: the same pipeline spans are emitted, the
// same compile-cost charges apply, and errors carry the same messages
// (a cached permanent error — a front-end error, a failed training
// run, a simulation out of fuel, at a wild address or with static data
// beyond memory — is returned on every subsequent lookup). The recorder deliberately sees the
// difference: misses emit frontend/parse and train/run leaves, hits
// emit frontend/clone and simulate/hit leaves and cache.*.hit counters,
// so the attribution report can say what the cache saved and what each
// hit's copy costs.
// The training stage optionally carries a persistent tier (SetStore):
// the content-addressed store shared by every daemon in a compile farm,
// so a rebooted process warm-starts from profiles the farm already
// trained, and the farm trains each key once — see persist.go.
type Cache struct {
	frontends memo.Group[*ir.Program]
	trains    memo.Group[*trainEntry]
	sims      memo.Group[*pa8000.Stats]
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		frontends: memo.Group[*ir.Program]{Retain: true},
		trains:    memo.Group[*trainEntry]{Retain: true},
		sims:      memo.Group[*pa8000.Stats]{Retain: true},
	}
}

// trainEntry is one training stage's outcome.
type trainEntry struct {
	data *profile.Data
	res  *interp.Result
	// costQuad/costLinear are the instrumented build's compile cost
	// under both cost models, so one entry serves any HLO.LinearCost.
	costQuad   int64
	costLinear int64
}

// cost returns the instrumented build's compile cost under the given
// cost model.
func (e *trainEntry) cost(linear bool) int64 {
	if linear {
		return e.costLinear
	}
	return e.costQuad
}

// sourceKey hashes the source list with length prefixes, so
// {"ab"} and {"a","b"} key differently.
func sourceKey(sources []string) string {
	h := sha256.New()
	var n [8]byte
	for _, src := range sources {
		binary.LittleEndian.PutUint64(n[:], uint64(len(src)))
		h.Write(n[:])
		h.Write([]byte(src))
	}
	return string(h.Sum(nil))
}

// trainKey extends the source key with the training inputs.
func trainKey(sources []string, train []int64, extras [][]int64) string {
	return fmt.Sprintf("%x|%v|%v", sourceKey(sources), train, extras)
}

// Frontend is the memoizing counterpart of the package-level Frontend:
// parse+check+lower happen once per distinct source set, and every call
// returns a private deep copy of the result. On a nil cache it simply
// runs the front end.
func (c *Cache) Frontend(sources []string) (*ir.Program, error) {
	p, _, err := c.frontend(sources, nil)
	return p, err
}

// frontend is Frontend with attribution: the actual parse runs inside a
// "frontend/parse" span and the per-hit deep copy inside a
// "frontend/clone" span on rec, and the returned hit flag says whether
// this call found the entry already filled — the answer to "is
// ir.Program.Clone per hit the dominant cache cost?" lives in those two
// spans. Which cell's recorder captures the parse span is
// schedule-dependent (the first requester parses), but exactly one
// parse happens per source set, so merged attribution stays
// deterministic.
func (c *Cache) frontend(sources []string, rec *obs.Recorder) (*ir.Program, bool, error) {
	p, hit, err := c.parsed(sources, rec)
	if err != nil {
		return nil, hit, err
	}
	if c == nil {
		return p, false, nil
	}
	sp := rec.Begin("frontend/clone")
	p = p.Clone()
	sp.End()
	return p, hit, nil
}

// parsed is frontend without the copy: on a cache it returns the
// memoized program itself, which every caller shares and none may
// mutate. The fill computes every Func.Size memo before publishing, so
// readers such as programCost never write to it either. On a nil cache
// the program is the caller's own.
func (c *Cache) parsed(sources []string, rec *obs.Recorder) (*ir.Program, bool, error) {
	parse := func(context.Context) (*ir.Program, error) {
		sp := rec.Begin("frontend/parse")
		defer sp.End()
		p, err := Frontend(sources)
		if err != nil {
			return nil, err
		}
		p.Funcs(func(f *ir.Func) bool {
			f.Size()
			return true
		})
		return p, nil
	}
	if c == nil {
		p, err := parse(context.Background())
		return p, false, err
	}
	p, ev, err := c.frontends.Do(context.Background(), sourceKey(sources), parse)
	return p, ev&memo.Shared != 0, err
}

// trainProfile memoizes the PBO training stage: instrumented build,
// training run(s), profile merge. The entry records the instrumented
// build's compile cost under both cost models so the caller can charge
// exactly what an uncached run would have charged.
//
// The first requester for a key fills the entry under its own context;
// the returned hit flag reports whether the entry was already filled
// (or being filled by someone else) — waiters count as hits: they pay
// wall time but no training work of their own. With a store attached,
// the filler's recorder also counts cache.train.disk-hit when the
// profile was loaded from the store and cache.train.disk-fill when it
// was trained and stored.
func (c *Cache) trainProfile(ctx context.Context, sources []string, train []int64, extras [][]int64, rec *obs.Recorder) (*trainEntry, bool, error) {
	fill := func(ctx context.Context) (*trainEntry, error) {
		return c.train(ctx, sources, train, extras, rec)
	}
	if c == nil {
		e, err := fill(ctx)
		return e, false, err
	}
	e, ev, err := c.trains.Do(ctx, cas.Key([]byte(trainKey(sources, train, extras))), fill)
	if ev&memo.Hit != 0 {
		rec.Count("cache.train.disk-hit", 1)
	}
	if ev&memo.Fill != 0 {
		rec.Count("cache.train.disk-fill", 1)
	}
	return e, ev&memo.Shared != 0, err
}

// TrainProfile is the memoizing, cancellable counterpart of the
// package-level TrainProfile: instrumented build, training run(s) on
// train plus each extras vector, merged profile database. Identical
// (sources, inputs) requests share one training run; the database is
// shared and must be treated as read-only. Valid on a nil *Cache
// (uncached).
func (c *Cache) TrainProfile(ctx context.Context, sources []string, train []int64, extras [][]int64) (*profile.Data, error) {
	return c.TrainProfileObs(ctx, sources, train, extras, nil)
}

// TrainProfileObs is TrainProfile with flight-record attribution: a
// filling caller's recorder receives the frontend/parse and train/run
// leaf spans plus a cache.train hit/miss counter, so a service can
// attribute training latency the same way batch compiles do.
func (c *Cache) TrainProfileObs(ctx context.Context, sources []string, train []int64, extras [][]int64, rec *obs.Recorder) (*profile.Data, error) {
	e, hit, err := c.trainProfile(ctx, sources, train, extras, rec)
	countCache(rec, "cache.train", hit)
	if err != nil {
		return nil, err
	}
	return e.data, nil
}

// train runs the training stage, reusing the front-end cache for the
// instrumented build: it interprets the memoized program itself, since
// the interpreter only reads the IR. Error messages match the
// historical uncached paths exactly. Each interpreter execution runs
// inside a "train/run" span on rec (the filling requester's recorder),
// so the attribution report separates training interpretation from the
// rest of the train stage's bookkeeping.
func (c *Cache) train(ctx context.Context, sources []string, train []int64, extras [][]int64, rec *obs.Recorder) (*trainEntry, error) {
	trainProg, _, err := c.parsed(sources, rec)
	if err != nil {
		return nil, err
	}
	e := &trainEntry{
		costQuad:   programCost(trainProg, false),
		costLinear: programCost(trainProg, true),
	}
	sp := rec.Begin("train/run")
	res, err := interp.RunCtx(ctx, trainProg, interp.Options{Inputs: train, Profile: true})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("driver: training run: %w", err)
	}
	e.res = res
	db := res.Profile
	for _, extra := range extras {
		sp := rec.Begin("train/run")
		res2, err := interp.RunCtx(ctx, trainProg, interp.Options{Inputs: extra, Profile: true})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("driver: extra training run: %w", err)
		}
		db.Merge(res2.Profile, 100)
	}
	e.data = db
	return e, nil
}

// simulate runs p on the machine model, or replays the memoized outcome
// of a run with the same pa8000.RunKey. Every caller, the filling one
// included, gets a private copy of the Stats, so no caller can alias
// the stored entry. The returned hit flag says whether the outcome came
// from another caller's run; a hit's copy runs inside a "simulate/hit"
// span on rec. On a nil cache it simply runs the simulation.
func (c *Cache) simulate(ctx context.Context, p *pa8000.Program, cfg pa8000.Config, inputs []int64, rec *obs.Recorder) (*pa8000.Stats, bool, error) {
	if c == nil {
		st, err := pa8000.RunCtx(ctx, p, cfg, inputs)
		return st, false, err
	}
	st, ev, err := c.sims.Do(ctx, pa8000.RunKey(p, cfg, inputs), func(ctx context.Context) (*pa8000.Stats, error) {
		return pa8000.RunCtx(ctx, p, cfg, inputs)
	})
	hit := ev&memo.Shared != 0
	if err != nil {
		return nil, hit, err
	}
	var sp obs.Timer
	if hit {
		sp = rec.Begin("simulate/hit")
	}
	cp := *st
	cp.Output = slices.Clone(st.Output)
	sp.End()
	return &cp, hit, nil
}
