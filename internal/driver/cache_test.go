package driver_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/specsuite"
)

// TestCacheEquivalence compiles the same benchmark under the same
// configuration with no cache, with a cold cache, and with a warm cache,
// and requires identical observable results: statistics, compile cost,
// code size, run outcome, remark stream, and pipeline span structure.
// The cache must be a pure wall-clock optimization — with one sanctioned
// exception: the flight recorder's cache-attribution leaves
// (frontend/parse, frontend/clone, train/run, simulate/hit)
// deliberately reveal whether a stage did real work or replayed a
// memoized result, and are asserted separately.
func TestCacheEquivalence(t *testing.T) {
	b, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	compile := func(cache *driver.Cache) (*driver.Compilation, []obs.Remark, []obs.Span, *pa8000.Stats) {
		t.Helper()
		rec := obs.New()
		opts := driver.DefaultOptions(b.Train)
		opts.ExtraTrainInputs = [][]int64{{3, 2}}
		opts.Obs = rec
		opts.Cache = cache
		c, err := driver.Compile(b.Sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Run(opts, b.Ref)
		if err != nil {
			t.Fatal(err)
		}
		return c, rec.Remarks(), rec.Spans(), st
	}

	cache := driver.NewCache()
	base, baseRemarks, baseSpans, baseSim := compile(nil)
	cold, coldRemarks, coldSpans, coldSim := compile(cache)
	warm, warmRemarks, warmSpans, warmSim := compile(cache)

	for _, tc := range []struct {
		name string
		c    *driver.Compilation
		rm   []obs.Remark
		sp   []obs.Span
		sim  *pa8000.Stats
	}{
		{"cold cache", cold, coldRemarks, coldSpans, coldSim},
		{"warm cache", warm, warmRemarks, warmSpans, warmSim},
	} {
		if tc.c.Stats != base.Stats {
			t.Errorf("%s: Stats = %+v, want %+v", tc.name, tc.c.Stats, base.Stats)
		}
		if tc.c.CompileCost != base.CompileCost {
			t.Errorf("%s: CompileCost = %d, want %d", tc.name, tc.c.CompileCost, base.CompileCost)
		}
		if tc.c.CodeSize != base.CodeSize {
			t.Errorf("%s: CodeSize = %d, want %d", tc.name, tc.c.CodeSize, base.CodeSize)
		}
		if !reflect.DeepEqual(tc.sim, baseSim) {
			t.Errorf("%s: run = %+v, want %+v", tc.name, tc.sim, baseSim)
		}
		if !reflect.DeepEqual(tc.rm, baseRemarks) {
			t.Errorf("%s: remark stream differs (%d vs %d remarks)", tc.name, len(tc.rm), len(baseRemarks))
		}
		got, want := pipelineSpans(tc.sp), pipelineSpans(baseSpans)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pipeline spans, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Depth != want[i].Depth ||
				got[i].SizeAfter != want[i].SizeAfter || got[i].CostAfter != want[i].CostAfter {
				t.Errorf("%s: span %d = %s(depth %d), want %s(depth %d)", tc.name,
					i, got[i].Name, got[i].Depth, want[i].Name, want[i].Depth)
			}
		}
	}

	// The cache-attribution leaves are where the three runs must differ.
	// Uncached: every stage parses for itself, nothing is cloned. Cold:
	// one parse feeds both the frontend stage, which clones it, and the
	// training build, which interprets the cached program itself. Warm:
	// no parse, no training run — one clone only — and the simulation
	// replays the cold run's.
	count := func(spans []obs.Span, name string) int {
		n := 0
		for _, sp := range spans {
			if sp.Name == name {
				n++
			}
		}
		return n
	}
	for _, check := range []struct {
		name                              string
		spans                             []obs.Span
		parses, clones, trainRun, simHits int
	}{
		{"no cache", baseSpans, 2, 0, 2, 0},
		{"cold cache", coldSpans, 1, 1, 2, 0},
		{"warm cache", warmSpans, 0, 1, 0, 1},
	} {
		if got := count(check.spans, "frontend/parse"); got != check.parses {
			t.Errorf("%s: %d frontend/parse spans, want %d", check.name, got, check.parses)
		}
		if got := count(check.spans, "frontend/clone"); got != check.clones {
			t.Errorf("%s: %d frontend/clone spans, want %d", check.name, got, check.clones)
		}
		if got := count(check.spans, "train/run"); got != check.trainRun {
			t.Errorf("%s: %d train/run spans, want %d", check.name, got, check.trainRun)
		}
		if got := count(check.spans, "simulate/hit"); got != check.simHits {
			t.Errorf("%s: %d simulate/hit spans, want %d", check.name, got, check.simHits)
		}
	}
}

// pipelineSpans strips the cache-attribution leaves, leaving the span
// structure that must be byte-equivalent whatever the cache did.
func pipelineSpans(spans []obs.Span) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		switch sp.Name {
		case "frontend/parse", "frontend/clone", "train/run", "simulate/hit":
			continue
		}
		out = append(out, sp)
	}
	return out
}

// TestCacheSharesTrainingAcrossScopes checks the harness-critical reuse:
// the p and cp configurations of one benchmark share training inputs, so
// the second compile must reuse the first's training entry (observable
// as an identical instrumented-build compile-cost charge) and still
// produce its own correct result.
func TestCacheSharesTrainingAcrossScopes(t *testing.T) {
	b, err := specsuite.ByName("072.sc")
	if err != nil {
		t.Fatal(err)
	}
	cache := driver.NewCache()
	compile := func(cross bool) *driver.Compilation {
		t.Helper()
		opts := driver.Options{Profile: true, CrossModule: cross, TrainInputs: b.Train, Cache: cache}
		opts.HLO = driver.DefaultOptions(b.Train).HLO
		c, err := driver.Compile(b.Sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	p := compile(false)
	cp := compile(true)
	if p.TrainResult != cp.TrainResult {
		t.Error("p and cp scopes did not share the cached training run")
	}
	if p.Stats == cp.Stats {
		t.Error("p and cp scopes produced identical stats — scope not applied?")
	}
}

// TestCacheConcurrentTrainingSharesFrontEnd compiles one benchmark at
// peak from four goroutines at once on one cache: two training input
// vectors, each under both scopes. Both training runs interpret the
// cached front-end program itself while the compiles clone it, so
// under -race this checks that nothing writes to the shared copy; and
// each build must match the same build made without a cache.
func TestCacheConcurrentTrainingSharesFrontEnd(t *testing.T) {
	b, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		train []int64
		cross bool
	}
	builds := []build{{b.Train, false}, {b.Train, true}, {[]int64{3, 2}, false}, {[]int64{3, 2}, true}}
	compile := func(bd build, cache *driver.Cache) (*driver.Compilation, error) {
		opts := driver.DefaultOptions(bd.train)
		opts.CrossModule = bd.cross
		opts.Cache = cache
		return driver.Compile(b.Sources, opts)
	}
	cache := driver.NewCache()
	got := make([]*driver.Compilation, len(builds))
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	for i, bd := range builds {
		wg.Add(1)
		go func(i int, bd build) {
			defer wg.Done()
			got[i], errs[i] = compile(bd, cache)
		}(i, bd)
	}
	wg.Wait()
	for i, bd := range builds {
		if errs[i] != nil {
			t.Fatalf("train %v cross %v: %v", bd.train, bd.cross, errs[i])
		}
		want, err := compile(bd, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Stats != want.Stats || got[i].CompileCost != want.CompileCost || got[i].CodeSize != want.CodeSize {
			t.Errorf("train %v cross %v: cached build %+v cost %d size %d, uncached %+v cost %d size %d",
				bd.train, bd.cross, got[i].Stats, got[i].CompileCost, got[i].CodeSize,
				want.Stats, want.CompileCost, want.CodeSize)
		}
	}
}

// TestCacheFrontendIsolation verifies that two compiles served by one
// cache cannot see each other's IR mutations: each gets a private clone.
func TestCacheFrontendIsolation(t *testing.T) {
	cache := driver.NewCache()
	srcs := []string{"module main;\nextern func print(x int) int;\nfunc main() int { print(7); return 0; }\n"}
	p1, err := cache.Frontend(srcs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.Frontend(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("cache handed out the same Program twice")
	}
	f1, err := p1.MainFunc()
	if err != nil {
		t.Fatal(err)
	}
	before := f1.Size()
	f1.Blocks[0].Instrs = f1.Blocks[0].Instrs[:1]
	f1.InvalidateSize()
	f2, err := p2.MainFunc()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() == f1.Size() || f2.Size() != before {
		t.Errorf("mutating one clone leaked into the other: %d vs %d (orig %d)", f1.Size(), f2.Size(), before)
	}
}

// TestCacheCounters pins the hit/miss accounting: the same cold and
// warm compile-and-run sequence as TestCacheEquivalence, watched
// through the counter registry instead of the span stream.
func TestCacheCounters(t *testing.T) {
	b, err := specsuite.ByName("023.eqntott")
	if err != nil {
		t.Fatal(err)
	}
	counters := func(cache *driver.Cache) map[string]int64 {
		t.Helper()
		rec := obs.New()
		opts := driver.DefaultOptions(b.Train)
		opts.Obs = rec
		opts.Cache = cache
		c, err := driver.Compile(b.Sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(opts, b.Train); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, c := range rec.Counters() {
			out[c.Name] = c.Value
		}
		return out
	}
	cache := driver.NewCache()
	cold := counters(cache)
	warm := counters(cache)
	for name, want := range map[string]int64{
		"cache.frontend.miss": 1, "cache.frontend.hit": 0,
		"cache.train.miss": 1, "cache.train.hit": 0,
		"cache.sim.miss": 1, "cache.sim.hit": 0,
	} {
		if cold[name] != want {
			t.Errorf("cold: %s = %d, want %d", name, cold[name], want)
		}
	}
	for name, want := range map[string]int64{
		"cache.frontend.miss": 0, "cache.frontend.hit": 1,
		"cache.train.miss": 0, "cache.train.hit": 1,
		"cache.sim.miss": 0, "cache.sim.hit": 1,
	} {
		if warm[name] != want {
			t.Errorf("warm: %s = %d, want %d", name, warm[name], want)
		}
	}
	if cold["hlo.bookkeeping-ns"] <= 0 {
		t.Error("hlo.bookkeeping-ns not published on an observed compile")
	}
}
