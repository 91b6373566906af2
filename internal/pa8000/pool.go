package pa8000

import (
	"math/bits"
	"sync"
)

// Pooled simulator state. A Run used to allocate its caches, BHT and —
// dominating everything — a freshly zeroed cfg.MemWords (default 32 MB)
// data memory on every call. The experiment harness runs tens of
// thousands of simulations, so that allocation showed up as the
// allocation delta of every span and kept the fault-domain warm paths
// memory-bound. engineState checks the whole machine out of a
// sync.Pool instead; memory cleanliness is restored on check-in by
// clearing only the pages a run actually dirtied (stores + InitData),
// tracked with one byte per page.

// pageShift sizes the dirty-tracking granularity: 1<<pageShift words
// (256 KiB) per page, i.e. 128 pages for the default 32 MB memory. A
// simulated store marks its page with a single indexed byte store.
const (
	pageShift = 15
	pageWords = 1 << pageShift
)

// simCache is the pooled, inline-probed equivalent of Cache: identical
// geometry, identical LRU evolution. Two shortcuts sit in front of the
// full probe. The I-cache with power-of-two lines looks lines up in
// its resident map. The D-cache and accessRun check lastLine first,
// which turns a repeat access to the previous line into two loads and
// a store. That check is sound because every access (hit, miss or
// repeat) on those paths refreshes lastLine/lastIdx, so it can only
// fire when the immediately preceding access touched the same line —
// which therefore cannot have been evicted in between.
type simCache struct {
	lineWords int64
	lineShift uint // log2(lineWords) when a power of two, else 0
	pow2Line  bool
	sets      int64
	setMask   int64 // sets-1 when sets is a power of two
	pow2Sets  bool
	assoc     int64
	tags      []int64 // sets × assoc; -1 = invalid
	lru       []int64
	clock     int64
	accesses  int64
	misses    int64
	lastLine  int64 // addr>>lineShift of the previous access; -1 = none
	lastIdx   int64 // way index holding lastLine
	// resident inverts tags: resident[line] is the way currently
	// holding line, -1 when absent. It turns a lookup into one indexed
	// load, with the O(assoc) work deferred to installLine on misses.
	// Only used when the address space of lines is small enough to
	// enumerate — the I-cache, whose lines cover the code array.
	resident []int32
}

// reset gives the cache the requested geometry and a cold state,
// reusing the tag/LRU arrays when the shape is unchanged. The geometry
// derivation matches NewCache exactly.
func (c *simCache) reset(sizeBytes, lineBytes, assoc int) {
	if assoc < 1 {
		assoc = 1
	}
	lineWords := int64(lineBytes / 8)
	if lineWords < 1 {
		lineWords = 1
	}
	lines := int64(sizeBytes / lineBytes)
	sets := lines / int64(assoc)
	if sets < 1 {
		sets = 1
	}
	c.lineWords = lineWords
	// For power-of-two lines the fast path compares true line numbers;
	// otherwise lineShift 0 degrades it to exact-address repeats (still
	// sound: same address ⇒ same line) and probe divides for real.
	c.lineShift = 0
	c.pow2Line = lineWords&(lineWords-1) == 0
	if c.pow2Line {
		c.lineShift = uint(bits.TrailingZeros64(uint64(lineWords)))
	}
	c.sets = sets
	c.setMask = sets - 1
	c.pow2Sets = sets&(sets-1) == 0
	c.assoc = int64(assoc)
	n := sets * int64(assoc)
	if int64(len(c.tags)) != n {
		c.tags = make([]int64, n)
		c.lru = make([]int64, n)
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	clear(c.lru)
	c.clock = 0
	c.accesses = 0
	c.misses = 0
	c.lastLine = -1
	c.lastIdx = 0
}

// probe is the full set-associative lookup, bit-for-bit the loop in
// Cache.Access: same victim selection (first way wins ties, strictly
// older stamps displace it), same LRU stamping. The caller has already
// bumped clock and accesses and missed the last-line fast path.
func (c *simCache) probe(addr int64) bool {
	// Addresses here are non-negative (pc ≥ 0 for the I-cache, bounds-
	// checked data addresses for the D-cache), so the shift and mask
	// forms agree exactly with the reference's divide and modulo.
	var line, set int64
	if c.pow2Line {
		line = addr >> c.lineShift
	} else {
		line = addr / c.lineWords
	}
	if c.pow2Sets {
		set = line & c.setMask
	} else {
		set = line % c.sets
		if set < 0 {
			set = -set
		}
	}
	base := set * c.assoc
	victim := base
	idx := int64(-1)
	if c.assoc == 2 {
		// Both caches default to two-way: resolve hit and victim with
		// straight-line compares. The victim rule matches the scan
		// below (way 0 wins ties, a strictly older way 1 displaces it).
		if c.tags[base] == line {
			idx = base
		} else if c.tags[base+1] == line {
			idx = base + 1
		} else if c.lru[base+1] < c.lru[base] {
			victim = base + 1
		}
	} else {
		oldest := c.lru[base]
		for i := base; i < base+c.assoc; i++ {
			if c.tags[i] == line {
				idx = i
				break
			}
			if c.lru[i] < oldest {
				oldest = c.lru[i]
				victim = i
			}
		}
	}
	hit := idx >= 0
	if !hit {
		c.misses++
		c.tags[victim] = line
		idx = victim
	}
	c.lru[idx] = c.clock
	c.lastLine = addr >> c.lineShift
	c.lastIdx = idx
	return hit
}

// ensureResident sizes the resident map for lines [0, n) and empties
// it. Must be called with the cache cold (all tags invalid), which
// reset guarantees, so that an all-empty map mirrors the tags.
func (c *simCache) ensureResident(n int64) {
	if int64(cap(c.resident)) < n {
		c.resident = make([]int32, n)
	}
	c.resident = c.resident[:n]
	for i := range c.resident {
		c.resident[i] = -1
	}
}

// victimWay picks the way a miss on line evicts: reference selection
// exactly (way 0 wins ties, strictly older ways displace it).
func (c *simCache) victimWay(line int64) int64 {
	var set int64
	if c.pow2Sets {
		set = line & c.setMask
	} else {
		set = line % c.sets // line ≥ 0 here
	}
	base := set * c.assoc
	victim := base
	if c.assoc == 2 {
		if c.lru[base+1] < c.lru[base] {
			victim = base + 1
		}
	} else {
		oldest := c.lru[base]
		for i := base + 1; i < base+c.assoc; i++ {
			if c.lru[i] < oldest {
				oldest = c.lru[i]
				victim = i
			}
		}
	}
	return victim
}

// installLine handles a resident-map miss: victim selection, tag
// install, LRU stamp at the current clock, and both map updates. The
// caller has already advanced clock past the access and charges the
// miss penalty.
func (c *simCache) installLine(line int64) {
	victim := c.victimWay(line)
	if old := c.tags[victim]; old >= 0 {
		c.resident[old] = -1
	}
	c.misses++
	c.tags[victim] = line
	c.lru[victim] = c.clock
	c.resident[line] = int32(victim)
}

// engineState is one checked-out machine: data memory with its dirty
// map, both caches, the BHT, the output accumulator, and the predecode
// buffer. Everything is reusable across runs and configs.
type engineState struct {
	mem   []int64
	dirty []uint8 // one byte per pageWords words; 1 = must clear on check-in
	ic    simCache
	dc    simCache
	bht   []uint8
	out   []int64
	code  []pInstr // predecode scratch, capacity reused across runs
}

var statePool sync.Pool

// pinned is a small free-list in front of statePool that the garbage
// collector cannot drain. sync.Pool empties by design across GC cycles
// (a pooled entry survives at most one collection as a victim), so a
// service that simulates in bursts used to re-allocate and re-zero the
// 32 MB arena after every idle-triggered GC — measured as two one-time
// refills per burst in the steady-state benchmarks. The first few
// machines checked in park here instead and are handed out LIFO, so
// the warm arena survives any number of collections; overflow beyond
// the cap still rides the GC-sized statePool.
var pinned struct {
	mu     sync.Mutex
	states []*engineState
	cap    int
}

// pinnedDefaultCap bounds how many machines (32 MB arenas) stay pinned
// without an explicit Prewarm: enough for the engine plus a concurrent
// reference/verify run.
const pinnedDefaultCap = 2

// Prewarm allocates n machines shaped for cfg, pins them, and raises
// the pinned capacity to at least n. Daemons call it at startup so the
// one-time arena allocation (and its page faults) happen before the
// first request instead of inside it. n < 1 pins nothing.
func Prewarm(cfg Config, n int) {
	if n < 1 {
		return
	}
	cfg = cfg.withDefaults()
	pinned.mu.Lock()
	if n > pinned.cap {
		pinned.cap = n
	}
	pinned.mu.Unlock()
	states := make([]*engineState, 0, n)
	for i := 0; i < n; i++ {
		states = append(states, getState(cfg))
	}
	for _, s := range states {
		putState(s)
	}
}

// getState checks a machine out of the pool, shaped for cfg and in the
// same cold state a freshly allocated one would have: zeroed memory
// (guaranteed by putState's dirty-page sweep), invalid cache tags,
// untrained BHT.
func getState(cfg Config) *engineState {
	pinned.mu.Lock()
	var s *engineState
	if n := len(pinned.states); n > 0 {
		s = pinned.states[n-1]
		pinned.states = pinned.states[:n-1]
	}
	pinned.mu.Unlock()
	if s == nil {
		s, _ = statePool.Get().(*engineState)
	}
	if s == nil {
		s = &engineState{}
	}
	if int64(len(s.mem)) != cfg.MemWords {
		s.mem = make([]int64, cfg.MemWords)
		s.dirty = make([]uint8, (cfg.MemWords+pageWords-1)>>pageShift)
	}
	s.ic.reset(cfg.ICacheBytes, cfg.ICacheLine, cfg.ICacheAssoc)
	s.dc.reset(cfg.DCacheBytes, cfg.DCacheLine, cfg.DCacheAssoc)
	n := 1
	for n < cfg.BHTEntries { // NewBHT's round-up-to-power-of-two
		n <<= 1
	}
	if len(s.bht) != n {
		s.bht = make([]uint8, n)
	} else {
		clear(s.bht)
	}
	s.out = s.out[:0]
	return s
}

// putState scrubs the dirtied memory pages and returns the machine to
// the pool. Runs touch a handful of pages (their globals and the top
// of the stack), so this clears kilobytes, not the 32 MB arena.
func putState(s *engineState) {
	mem, dirty := s.mem, s.dirty
	for i, d := range dirty {
		if d != 0 {
			lo := int64(i) << pageShift
			hi := lo + pageWords
			if hi > int64(len(mem)) {
				hi = int64(len(mem))
			}
			clear(mem[lo:hi])
			dirty[i] = 0
		}
	}
	s.out = s.out[:0]
	pinned.mu.Lock()
	limit := pinned.cap
	if limit == 0 {
		limit = pinnedDefaultCap
	}
	if len(pinned.states) < limit {
		pinned.states = append(pinned.states, s)
		pinned.mu.Unlock()
		return
	}
	pinned.mu.Unlock()
	statePool.Put(s)
}
