package pa8000

import (
	"runtime"
	"testing"
)

// TestPinnedStateSurvivesGC pins the pool-refill fix: sync.Pool is
// drained by the garbage collector, so before the pinned free-list a
// GC between bursts forced a fresh 32 MB arena allocation (and zeroing)
// on the next run. A checked-in machine must now survive any number of
// collections and come back as the same arena.
func TestPinnedStateSurvivesGC(t *testing.T) {
	cfg := Config{MemWords: 1 << 20}.withDefaults() // 8 MB: cheap but arena-sized
	Prewarm(cfg, 2)

	s1 := getState(cfg)
	s2 := getState(cfg)
	arena1, arena2 := &s1.mem[0], &s2.mem[0]
	putState(s2)
	putState(s1)

	runtime.GC()
	runtime.GC() // victim-cache generation: would empty a bare sync.Pool

	g1 := getState(cfg)
	g2 := getState(cfg)
	defer putState(g2)
	defer putState(g1)
	got := map[*int64]bool{&g1.mem[0]: true, &g2.mem[0]: true}
	if !got[arena1] || !got[arena2] {
		t.Fatal("pinned machines were collected across GC; the arenas would be re-allocated")
	}
}

// TestPrewarmShapesForConfig: a prewarmed machine checked out for the
// same config needs no reallocation — the memory and dirty map already
// fit — and is cold (zeroed, invalid tags).
func TestPrewarmShapesForConfig(t *testing.T) {
	cfg := Config{MemWords: 1 << 16}.withDefaults()
	Prewarm(cfg, 1)
	s := getState(cfg)
	defer putState(s)
	if int64(len(s.mem)) != cfg.MemWords {
		t.Fatalf("prewarmed arena has %d words, want %d", len(s.mem), cfg.MemWords)
	}
	for i, v := range s.mem[:256] {
		if v != 0 {
			t.Fatalf("prewarmed memory not zeroed at word %d: %d", i, v)
		}
	}
	for _, tag := range s.ic.tags {
		if tag != -1 {
			t.Fatal("prewarmed I-cache not cold")
		}
	}
}

// TestPutStateOverflowStillPools: check-ins beyond the pinned capacity
// must not grow the pinned list without bound.
func TestPutStateOverflowStillPools(t *testing.T) {
	cfg := Config{MemWords: 1 << 12}.withDefaults()
	Prewarm(cfg, 2)
	states := make([]*engineState, 6)
	for i := range states {
		states[i] = getState(cfg)
	}
	for _, s := range states {
		putState(s)
	}
	pinned.mu.Lock()
	n, limit := len(pinned.states), pinned.cap
	pinned.mu.Unlock()
	if limit < 2 {
		t.Fatalf("pinned cap = %d after Prewarm(2)", limit)
	}
	if n > limit {
		t.Fatalf("pinned list grew to %d, cap is %d", n, limit)
	}
}

// TestPrewarmNonPositive: Prewarm pins nothing for n < 1, the worker
// counts par.Do reads as "the default" (hlobench -j -1).
func TestPrewarmNonPositive(t *testing.T) {
	cfg := Config{MemWords: 1 << 12}.withDefaults()
	pinned.mu.Lock()
	capBefore, nBefore := pinned.cap, len(pinned.states)
	pinned.mu.Unlock()
	Prewarm(cfg, -1)
	Prewarm(cfg, 0)
	pinned.mu.Lock()
	capAfter, nAfter := pinned.cap, len(pinned.states)
	pinned.mu.Unlock()
	if capAfter != capBefore || nAfter != nBefore {
		t.Fatalf("Prewarm(n < 1) changed the pinned list: cap %d -> %d, pinned %d -> %d",
			capBefore, capAfter, nBefore, nAfter)
	}
}
