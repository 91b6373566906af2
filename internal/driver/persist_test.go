package driver_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/specsuite"
)

// TestWarmStartFromStore is the farm's warm-boot contract at the driver
// layer: a fresh Cache (a "rebooted daemon") backed by the same cas
// store must compile without re-running the training interpreter, and
// the result must be observationally identical — stats, compile cost,
// code size, simulation output — to the cold build that filled the
// store.
func TestWarmStartFromStore(t *testing.T) {
	b, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cas.Open(t.TempDir(), cas.Options{})
	if err != nil {
		t.Fatal(err)
	}

	compile := func(cache *driver.Cache) (*driver.Compilation, *obs.Recorder, []int64) {
		t.Helper()
		rec := obs.New()
		opts := driver.DefaultOptions(b.Train)
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
		return c, rec, st.Output
	}

	counters := func(rec *obs.Recorder) map[string]int64 {
		out := make(map[string]int64)
		for _, c := range rec.Counters() {
			out[c.Name] = c.Value
		}
		return out
	}

	cold := driver.NewCache()
	cold.SetStore(store)
	cbuild, crec, cout := compile(cold)
	cc := counters(crec)
	if cc["cache.train.disk-fill"] == 0 {
		t.Fatalf("cold build did not fill the store: %v", cc)
	}

	warm := driver.NewCache() // process reboot: empty memory, same disk
	warm.SetStore(store)
	wbuild, wrec, wout := compile(warm)
	wc := counters(wrec)
	if wc["cache.train.disk-hit"] == 0 {
		t.Fatalf("warm build re-trained instead of loading the profile entry: %v", wc)
	}
	for _, span := range wrec.Spans() {
		if span.Name == "train/run" {
			t.Fatalf("warm build ran %s", span.Name)
		}
	}

	if wbuild.Stats != cbuild.Stats {
		t.Errorf("Stats diverged: warm %+v, cold %+v", wbuild.Stats, cbuild.Stats)
	}
	if wbuild.CompileCost != cbuild.CompileCost {
		t.Errorf("CompileCost diverged: warm %d, cold %d", wbuild.CompileCost, cbuild.CompileCost)
	}
	if wbuild.CodeSize != cbuild.CodeSize {
		t.Errorf("CodeSize diverged: warm %d, cold %d", wbuild.CodeSize, cbuild.CodeSize)
	}
	if len(wout) != len(cout) {
		t.Fatalf("output length diverged: warm %d, cold %d", len(wout), len(cout))
	}
	for i := range wout {
		if wout[i] != cout[i] {
			t.Fatalf("output[%d] diverged: warm %d, cold %d", i, wout[i], cout[i])
		}
	}
	if wbuild.TrainResult != nil {
		t.Error("warm build carries a TrainResult; disk hits must leave it nil")
	}

	// The warm program's listing must be byte-identical to the cold one.
	for i, m := range wbuild.IR.Modules {
		if m.String() != cbuild.IR.Modules[i].String() {
			t.Fatalf("module %d listing diverged after disk round trip", i)
		}
	}
}

// TestStoreMissFallback: a cache with a store but no matching entries
// must behave exactly like a cold in-memory cache.
func TestStoreMissFallback(t *testing.T) {
	b, err := specsuite.ByName("023.eqntott")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cas.Open(t.TempDir(), cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := driver.NewCache()
	cache.SetStore(store)
	opts := driver.DefaultOptions(b.Train)
	opts.Cache = cache
	c1, err := driver.Compile(b.Sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := driver.Compile(b.Sources, driver.DefaultOptions(b.Train))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Stats != plain.Stats || c1.CodeSize != plain.CodeSize {
		t.Fatalf("store-backed compile diverged from plain compile")
	}
}

// TestFarmTrainsOnce: two daemons (two store handles with different
// owners on one directory, each behind its own Cache) that miss the same
// training key at once train it once between them — one trains and
// stores, the other waits on the fill lease and loads the stored
// profile.
func TestFarmTrainsOnce(t *testing.T) {
	b, err := specsuite.ByName("134.perl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var caches [2]*driver.Cache
	for i, owner := range []string{"a", "b"} {
		store, err := cas.Open(dir, cas.Options{Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = driver.NewCache()
		caches[i].SetStore(store)
	}
	var recs [2]*obs.Recorder
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range caches {
		recs[i] = obs.New()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := caches[i].TrainProfileObs(context.Background(), b.Sources, b.Train, nil, recs[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	runs, counts := 0, map[string]int64{}
	for _, rec := range recs {
		for _, sp := range rec.Spans() {
			if sp.Name == "train/run" {
				runs++
			}
		}
		for _, c := range rec.Counters() {
			counts[c.Name] += c.Value
		}
	}
	if runs != 1 || counts["cache.train.disk-fill"] != 1 || counts["cache.train.disk-hit"] != 1 {
		t.Fatalf("train/run spans = %d, disk-fill = %d, disk-hit = %d; want 1, 1 and 1",
			runs, counts["cache.train.disk-fill"], counts["cache.train.disk-hit"])
	}
}
