package driver_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/pa8000"
)

// simSource prints input(0) values and returns their sum, so a run has
// Output to alias and its cost scales with the input.
const simSource = `
module main;
extern func print(x int) int;
extern func input(i int) int;
func main() int {
	var i int;
	var s int;
	i = 0;
	s = 0;
	while (i < input(0)) {
		s = s + i;
		if (i < 3) { print(i); }
		i = i + 1;
	}
	return s;
}
`

// buildSim compiles simSource without profiling.
func buildSim(t *testing.T, cache *driver.Cache) (*driver.Compilation, driver.Options) {
	t.Helper()
	opts := driver.Options{HLO: driver.DefaultOptions(nil).HLO, Cache: cache}
	c, err := driver.Compile([]string{simSource}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, opts
}

// runCounted runs c once with a fresh recorder and returns the outcome
// and the recorder's counters.
func runCounted(ctx context.Context, c *driver.Compilation, opts driver.Options, inputs []int64) (*pa8000.Stats, map[string]int64, error) {
	rec := obs.New()
	opts.Obs = rec
	st, err := c.RunCtx(ctx, opts, inputs)
	counts := map[string]int64{}
	for _, ct := range rec.Counters() {
		counts[ct.Name] = ct.Value
	}
	return st, counts, err
}

// TestSimMemoCopies: the filler and every hit get their own Stats, so
// a caller that writes to its Output cannot change what the next hit
// sees.
func TestSimMemoCopies(t *testing.T) {
	c, opts := buildSim(t, driver.NewCache())
	inputs := []int64{10}
	uncached := opts
	uncached.Cache = nil
	want, err := c.Run(uncached, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Output) == 0 {
		t.Fatal("test program printed nothing")
	}
	want.Output = append([]int64(nil), want.Output...)
	for i := 0; i < 3; i++ {
		st, err := c.Run(opts, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("run %d = %+v, want %+v", i, st, want)
		}
		st.Output[0] = -1
		st.Cycles = -1
	}
}

// TestSimMemoErrors pins the error contract: a run that ends in a
// context error is not kept, and a permanent simulator error is kept
// and returned without simulating again.
func TestSimMemoErrors(t *testing.T) {
	c, opts := buildSim(t, driver.NewCache())
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runCounted(canceled, c, opts, []int64{10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
	st, counts, err := runCounted(context.Background(), c, opts, []int64{10})
	if err != nil || st.ExitCode != 45 {
		t.Fatalf("run after a canceled one = %+v, %v; want exit 45", st, err)
	}
	if counts["cache.sim.miss"] != 1 || counts["cache.sim.hit"] != 0 {
		t.Errorf("run after a canceled one: cache.sim miss/hit = %d/%d, want 1/0 (the canceled run was kept)",
			counts["cache.sim.miss"], counts["cache.sim.hit"])
	}

	opts.Machine.Fuel = 1000
	_, coldCounts, cold := runCounted(context.Background(), c, opts, []int64{1_000_000})
	_, warmCounts, warm := runCounted(context.Background(), c, opts, []int64{1_000_000})
	if !errors.Is(cold, pa8000.ErrFuel) || warm == nil || warm.Error() != cold.Error() {
		t.Fatalf("out of fuel: cold %v, warm %v; want ErrFuel twice", cold, warm)
	}
	if coldCounts["cache.sim.miss"] != 1 || warmCounts["cache.sim.hit"] != 1 || warmCounts["cache.sim.miss"] != 0 {
		t.Errorf("out of fuel: cold miss %d, warm hit/miss %d/%d; want 1, 1/0",
			coldCounts["cache.sim.miss"], warmCounts["cache.sim.hit"], warmCounts["cache.sim.miss"])
	}
}

// TestSimMemoSingleFlight: concurrent runs of one Compilation on one
// cache simulate once and all see the same Stats.
func TestSimMemoSingleFlight(t *testing.T) {
	c, opts := buildSim(t, driver.NewCache())
	const n = 8
	stats := make([]*pa8000.Stats, n)
	counts := make([]map[string]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			stats[i], counts[i], err = runCounted(context.Background(), c, opts, []int64{200_000})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	misses := int64(0)
	for i := range counts {
		misses += counts[i]["cache.sim.miss"]
		if !reflect.DeepEqual(stats[i], stats[0]) {
			t.Errorf("run %d = %+v, want %+v", i, stats[i], stats[0])
		}
	}
	if misses != 1 {
		t.Errorf("%d concurrent runs simulated %d times, want 1", n, misses)
	}
}

// bigDataSource declares more static data than the machine (and the
// training interpreter) has memory.
const bigDataSource = "module m; var big [5000000] int; var x int = 7; func main() int { return x; }"

// TestStaticDataBeyondMemoryCached: a program whose static data does
// not fit in memory fails training and simulation with an error that
// the cache keeps, so a second request gets it at once rather than
// waiting on a fill that never finished.
func TestStaticDataBeyondMemoryCached(t *testing.T) {
	cache := driver.NewCache()
	compile := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		opts := driver.DefaultOptions([]int64{1})
		opts.Cache = cache
		_, err := driver.CompileCtx(ctx, []string{bigDataSource}, opts)
		return err
	}
	first, second := compile(), compile()
	if first == nil || errors.Is(first, context.DeadlineExceeded) {
		t.Fatalf("profile-fed compile: err = %v, want a training error", first)
	}
	if second == nil || second.Error() != first.Error() {
		t.Errorf("second profile-fed compile: err = %v, want %v", second, first)
	}

	opts := driver.Options{HLO: driver.DefaultOptions(nil).HLO, Cache: cache}
	c, err := driver.Compile([]string{bigDataSource}, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, _, first = runCounted(context.Background(), c, opts, nil)
	_, counts, second := runCounted(context.Background(), c, opts, nil)
	if first == nil || second == nil || second.Error() != first.Error() {
		t.Errorf("runs: %v then %v, want one simulator error twice", first, second)
	}
	if counts["cache.sim.hit"] != 1 {
		t.Errorf("second run: cache.sim.hit = %d, want 1", counts["cache.sim.hit"])
	}
}
