package driver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cas"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Cache memoizes the configuration-independent stages of Compile: the
// front end (parse, check, lower — identical for every scope and budget
// of the same sources) and the training run (the instrumented build and
// interpreter execution depend only on the sources and training inputs,
// so the "p" and "cp" configurations of one benchmark can share it).
// The experiment harness compiles every benchmark under many
// configurations; with a cache the frontend and training work is done
// once per benchmark instead of once per cell.
//
// Both stages run before HLO, so nothing that depends on HLO's options
// is memoized here. The daemon's rendered responses live in the serve
// layer, keyed on endpoint and request body (serve.respKey).
//
// Cached front-end output is pristine: every hit returns a fresh deep
// copy (ir.Program.Clone), so concurrent compilations never share
// mutable IR. Cached profile databases are shared without copying —
// profile.Data.Attach only reads the database. A nil *Cache is valid
// and disables memoization.
//
// Hits are observationally identical to misses apart from wall time and
// flight-recorder attribution: the same pipeline spans are emitted, the
// same compile-cost charges apply, and errors carry the same messages
// (a cached permanent error is returned on every subsequent lookup;
// context-cancellation errors are never cached — see trainProfile).
// The recorder deliberately sees the difference: misses emit
// frontend/parse and train/run leaves, hits emit frontend/clone leaves
// and cache.*.hit counters, so the attribution report can say what the
// cache saved and what each hit's deep copy costs.
// A Cache optionally carries a second, persistent tier (SetStore): a
// content-addressed on-disk store shared by every daemon in a compile
// farm. Fills consult the disk tier before doing work and publish
// their results back, so a rebooted process warm-starts from artifacts
// the farm already built — see persist.go for formats and guarantees.
type Cache struct {
	mu        sync.Mutex
	frontends map[string]*frontendEntry
	trains    map[string]*trainEntry
	store     *cas.Store // tier 2, nil when purely in-memory
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

type frontendEntry struct {
	once sync.Once
	prog *ir.Program
	err  error
}

type trainEntry struct {
	// done is closed when the filling caller finishes (successfully or
	// not). Unlike the frontend's sync.Once, training is cancellable: the
	// fill runs under the FIRST requester's context, and if that context
	// dies mid-train the entry is evicted before done is closed, so a
	// waiting requester retries as the new filler under its own context
	// instead of inheriting a stranger's cancellation error. Permanent
	// errors (bad sources, failing training run) are latched forever,
	// matching the frontend cache.
	done chan struct{}
	data *profile.Data
	res  *interp.Result
	// costQuad/costLinear are the instrumented build's compile cost
	// under both cost models, so one entry serves any HLO.LinearCost.
	costQuad   int64
	costLinear int64
	err        error
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
	if c == nil {
		sp := rec.Begin("frontend/parse")
		p, err := Frontend(sources)
		sp.End()
		return p, false, err
	}
	key := sourceKey(sources)
	c.mu.Lock()
	if c.frontends == nil {
		c.frontends = make(map[string]*frontendEntry)
	}
	e, ok := c.frontends[key]
	if !ok {
		e = &frontendEntry{}
		c.frontends[key] = e
	}
	c.mu.Unlock()
	filled := false
	e.once.Do(func() {
		filled = true
		if c.store != nil {
			if p, ok := c.loadFrontend(key, rec); ok {
				e.prog = p
				return
			}
		}
		sp := rec.Begin("frontend/parse")
		e.prog, e.err = Frontend(sources)
		sp.End()
		if e.err == nil && c.store != nil {
			c.storeFrontend(key, e.prog, rec)
		}
	})
	if e.err != nil {
		return nil, !filled, e.err
	}
	sp := rec.Begin("frontend/clone")
	p := e.prog.Clone()
	sp.End()
	return p, !filled, nil
}

// trainProfile memoizes the PBO training stage: instrumented build,
// training run(s), profile merge. The entry records the instrumented
// build's compile cost under both cost models so the caller can charge
// exactly what an uncached run would have charged.
//
// Cancellation protocol: the first requester for a key fills the entry
// under its own context. Requesters that find a fill in flight wait for
// it (or their own context, whichever dies first). A fill that ends in
// a context error is evicted rather than latched — the canceling
// requester gets its own ctx error, and any waiter retries from the
// top, becoming the new filler.
// The returned hit flag reports whether the entry was already filled
// (or being filled by someone else) — waiters count as hits: they pay
// wall time but no training work of their own.
func (c *Cache) trainProfile(ctx context.Context, sources []string, train []int64, extras [][]int64, rec *obs.Recorder) (*trainEntry, bool, error) {
	if c == nil {
		e := &trainEntry{}
		e.fill(ctx, c, sources, train, extras, rec)
		return e, false, e.err
	}
	key := trainKey(sources, train, extras)
	for {
		c.mu.Lock()
		if c.trains == nil {
			c.trains = make(map[string]*trainEntry)
		}
		e, ok := c.trains[key]
		if !ok {
			e = &trainEntry{done: make(chan struct{})}
			c.trains[key] = e
			c.mu.Unlock()
			e.fill(ctx, c, sources, train, extras, rec)
			if isCtxErr(e.err) {
				c.mu.Lock()
				if c.trains[key] == e {
					delete(c.trains, key)
				}
				c.mu.Unlock()
			}
			close(e.done)
			return e, false, e.err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if isCtxErr(e.err) {
				continue // the filler was canceled; retry as the filler
			}
			return e, true, e.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
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
	if rec != nil {
		if hit {
			rec.Count("cache.train.hit", 1)
		} else {
			rec.Count("cache.train.miss", 1)
		}
	}
	if err != nil {
		return nil, err
	}
	return e.data, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fill runs the training stage, reusing the front-end cache for the
// instrumented build. Error messages match the historical uncached
// paths exactly. Each interpreter execution runs inside a "train/run"
// span on rec (the filling requester's recorder), so the attribution
// report separates training interpretation from the rest of the train
// stage's bookkeeping.
func (e *trainEntry) fill(ctx context.Context, c *Cache, sources []string, train []int64, extras [][]int64, rec *obs.Recorder) {
	if c != nil && c.store != nil {
		if e.loadTrain(c, trainKey(sources, train, extras), rec) {
			return
		}
	}
	trainProg, _, err := c.frontend(sources, rec)
	if err != nil {
		e.err = err
		return
	}
	e.costQuad = programCost(trainProg, false)
	e.costLinear = programCost(trainProg, true)
	sp := rec.Begin("train/run")
	res, err := interp.RunCtx(ctx, trainProg, interp.Options{Inputs: train, Profile: true})
	sp.End()
	if err != nil {
		e.err = fmt.Errorf("driver: training run: %w", err)
		return
	}
	e.res = res
	db := res.Profile
	for _, extra := range extras {
		sp := rec.Begin("train/run")
		res2, err := interp.RunCtx(ctx, trainProg, interp.Options{Inputs: extra, Profile: true})
		sp.End()
		if err != nil {
			e.err = fmt.Errorf("driver: extra training run: %w", err)
			return
		}
		db.Merge(res2.Profile, 100)
	}
	e.data = db
	if c != nil && c.store != nil {
		e.storeTrain(c, trainKey(sources, train, extras), rec)
	}
}
