package cas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// putN stores n distinct entries of kind and returns their keys plus
// the on-disk size of one entry (all payloads are the same length).
func putN(t *testing.T, s *Store, kind string, n int) ([]string, int64) {
	t.Helper()
	before := s.SizeBytes()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key([]byte(fmt.Sprintf("%s-entry-%d", kind, i)))
		payload := []byte(strings.Repeat("x", 90) + fmt.Sprintf("%10d", i))
		if err := s.Put(kind, keys[i], payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	return keys, (s.SizeBytes() - before) / int64(n)
}

// TestGCNeverEvictsPinned is the pinning property test from the
// acceptance criteria: over random pin sets and a cap far too small for
// the store, a GC sweep must reap every unpinned entry and not one
// pinned entry.
func TestGCNeverEvictsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		s := openTest(t, Options{})
		keys, entrySize := putN(t, s, "ir", 16)
		pinned := make(map[int]bool)
		for i := range keys {
			if rng.Intn(2) == 0 {
				pinned[i] = true
				s.pinPath(s.objectPath("ir", keys[i]))
			}
		}
		// Age everything into the old generation so both eviction paths
		// face the pins, and squeeze the cap to one entry.
		old := time.Now().Add(-time.Hour)
		for _, k := range keys {
			_ = os.Chtimes(s.objectPath("ir", k), old, old)
		}
		s.opts.MaxBytes = entrySize
		st := s.GC()
		for i, k := range keys {
			_, err := s.Get("ir", k)
			if pinned[i] && err != nil {
				t.Fatalf("iter %d: pinned entry %d evicted: %v (stats %+v)", iter, i, err, st)
			}
			if !pinned[i] && !errors.Is(err, ErrMiss) {
				t.Fatalf("iter %d: unpinned entry %d survived a 1-entry cap: %v", iter, i, err)
			}
		}
		if len(pinned) > 0 && st.PinnedSkips == 0 {
			t.Fatalf("iter %d: sweep reported no pinned skips over %d pins", iter, len(pinned))
		}
	}
}

// TestGCGenerationalSweep: over the cap, idle old-generation entries go
// first — down to the low watermark — and recently-used entries survive
// untouched when that suffices.
func TestGCGenerationalSweep(t *testing.T) {
	s := openTest(t, Options{})
	keys, entrySize := putN(t, s, "ir", 5)
	for i, k := range keys[:3] {
		// Far past the 10m generation age, with distinct mtimes so the
		// LRU order within the old generation is deterministic.
		old := time.Now().Add(-time.Hour + time.Duration(i)*time.Second)
		_ = os.Chtimes(s.objectPath("ir", k), old, old)
	}
	s.opts.MaxBytes = entrySize * 7 / 2 // 3.5 entries; low watermark ~3.06
	st := s.GC()
	if st.EvictedOld != 2 || st.EvictedYoung != 0 {
		t.Fatalf("evicted old=%d young=%d, want 2/0 (stats %+v)", st.EvictedOld, st.EvictedYoung, st)
	}
	for i, k := range keys {
		_, err := s.Get("ir", k)
		if i < 2 && !errors.Is(err, ErrMiss) {
			t.Fatalf("oldest entry %d should be gone, got %v", i, err)
		}
		if i >= 2 && err != nil {
			t.Fatalf("entry %d should survive: %v", i, err)
		}
	}
}

// TestGCRepricesSharedStore: a sibling daemon's Puts are invisible to
// this process's incremental size counter; the sweep must re-price from
// disk and then enforce the cap against the real total.
func TestGCRepricesSharedStore(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, entrySize := putN(t, b, "ir", 10)
	if a.SizeBytes() != 0 {
		t.Fatalf("a priced sibling writes without a sweep: %d", a.SizeBytes())
	}
	a.opts.MaxBytes = entrySize * 3
	a.GC()
	if got := a.SizeBytes(); got > a.opts.MaxBytes || got <= 0 {
		t.Fatalf("after GC size=%d, want in (0, %d]", got, a.opts.MaxBytes)
	}
}

// TestGCRemovesCrashDebris: orphaned Put temp files and lease
// renew/tombstone debris old enough to be dead are swept; a fresh temp
// file (a live in-flight write) is not.
func TestGCRemovesCrashDebris(t *testing.T) {
	s := openTest(t, Options{})
	keys, _ := putN(t, s, "ir", 1)
	shard := filepath.Dir(s.objectPath("ir", keys[0]))
	old := time.Now().Add(-time.Hour)

	deadTmp := filepath.Join(shard, ".tmp-dead")
	liveTmp := filepath.Join(shard, ".tmp-live")
	deadRenew := filepath.Join(s.dir, "leases", ".renew-dead")
	deadTomb := filepath.Join(s.dir, "leases", "ir-abc.lease.dead-x-1")
	for _, p := range []string{deadTmp, liveTmp, deadRenew, deadTomb} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{deadTmp, deadRenew, deadTomb} {
		_ = os.Chtimes(p, old, old)
	}
	st := s.GC()
	if st.TmpRemoved != 3 {
		t.Fatalf("TmpRemoved = %d, want 3", st.TmpRemoved)
	}
	if _, err := os.Stat(liveTmp); err != nil {
		t.Fatal("GC removed a fresh in-flight temp file")
	}
	if _, err := s.Get("ir", keys[0]); err != nil {
		t.Fatalf("real entry lost: %v", err)
	}
}

// TestScrubQuarantinesAndRepairs: the startup scrub moves a corrupted
// object into quarantine and restores a spuriously-quarantined valid
// entry into its empty slot.
func TestScrubQuarantinesAndRepairs(t *testing.T) {
	s := openTest(t, Options{})
	keys, _ := putN(t, s, "ir", 3)

	// Corrupt entry 0 in place: flip a payload byte.
	p0 := s.objectPath("ir", keys[0])
	raw, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(p0, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Spuriously quarantine entry 1: the file itself is valid.
	p1 := s.objectPath("ir", keys[1])
	qname := fmt.Sprintf("ir-%s.%d", keys[1], time.Now().UnixNano())
	if err := os.Rename(p1, filepath.Join(s.dir, "quarantine", qname)); err != nil {
		t.Fatal(err)
	}

	rep := s.Scrub()
	if rep.Quarantined != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub = %+v, want 1 quarantined / 1 repaired", rep)
	}
	if _, err := s.Get("ir", keys[0]); !errors.Is(err, ErrMiss) {
		t.Fatalf("corrupt entry still served: %v", err)
	}
	if _, err := s.Get("ir", keys[1]); err != nil {
		t.Fatalf("repaired entry not restored: %v", err)
	}
	if _, err := s.Get("ir", keys[2]); err != nil {
		t.Fatalf("healthy entry damaged by scrub: %v", err)
	}
	if s.Counters()["scrub_repairs"] != 1 {
		t.Fatalf("scrub_repairs counter = %d, want 1", s.Counters()["scrub_repairs"])
	}
}

// TestQuarantineBounded: quarantine/ is capped by bytes (rotation,
// oldest out) and aged out entirely once entries pass QuarantineMaxAge.
func TestQuarantineBounded(t *testing.T) {
	s := openTest(t, Options{QuarantineMaxBytes: 100})
	keys, _ := putN(t, s, "ir", 8)
	for _, k := range keys {
		p := s.objectPath("ir", k)
		corrupt := []byte("hlocas1 ir 3 feed\n" + strings.Repeat("z", 40))
		if err := os.WriteFile(p, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("ir", k); err == nil {
			t.Fatal("corrupt entry served")
		}
	}
	qdir := filepath.Join(s.dir, "quarantine")
	var total int64
	ents, _ := os.ReadDir(qdir)
	for _, e := range ents {
		info, _ := e.Info()
		total += info.Size()
	}
	if total > 100 {
		t.Fatalf("quarantine holds %d bytes, cap 100", total)
	}
	if s.Counters()["quarantine_drops"] == 0 {
		t.Fatal("no rotation recorded")
	}

	// Age-out: jump the store's clock past the age limit and sweep.
	s.now = func() time.Time { return time.Now().Add(s.opts.QuarantineMaxAge + time.Hour) }
	s.GC()
	if ents, _ := os.ReadDir(qdir); len(ents) != 0 {
		t.Fatalf("%d quarantined entries survived the age limit", len(ents))
	}
}

// TestPutDegradesWhenStoreUnwritable: an unwritable objects/<kind>
// (ENOSPC/EIO class, simulated by wedging the directory) makes Put
// return an error and bump write_errors; the store keeps serving other
// kinds and recovers as soon as the path heals.
func TestPutDegradesWhenStoreUnwritable(t *testing.T) {
	s := openTest(t, Options{})
	// Wedge: a regular file where the kind directory belongs makes
	// every MkdirAll/CreateTemp under it fail with ENOTDIR.
	wedge := filepath.Join(s.dir, "objects", "ir")
	if err := os.WriteFile(wedge, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("wedged"))
	if err := s.Put("ir", key, []byte("payload")); err == nil {
		t.Fatal("Put into a wedged kind dir must fail")
	}
	if s.Counters()["write_errors"] != 1 {
		t.Fatalf("write_errors = %d, want 1", s.Counters()["write_errors"])
	}
	if err := s.Put("profile", key, []byte("payload")); err != nil {
		t.Fatalf("healthy kind degraded too: %v", err)
	}
	if err := os.Remove(wedge); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ir", key, []byte("payload")); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	if _, err := s.Get("ir", key); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
}

// TestInjectedWriteFaultDegrades: the "cas/write" point panics inside
// Put; the guard converts it to an error and the store stays usable.
func TestInjectedWriteFaultDegrades(t *testing.T) {
	s := openTest(t, Options{})
	t.Cleanup(resilience.DisarmAll)
	if _, err := resilience.Arm("cas/write", 0); err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("faulted-put"))
	err := s.Put("ir", key, []byte("payload"))
	if err == nil || !strings.Contains(err.Error(), "cas/write") {
		t.Fatalf("Put = %v, want injected-fault error", err)
	}
	if s.Counters()["write_errors"] != 1 {
		t.Fatalf("write_errors = %d, want 1", s.Counters()["write_errors"])
	}
	if err := s.Put("ir", key, []byte("payload")); err != nil {
		t.Fatalf("Put after one-shot fault: %v", err)
	}
}

// TestInjectedEvictFaultContained: a panic inside the sweep abandons
// the sweep, not the Put that triggered it.
func TestInjectedEvictFaultContained(t *testing.T) {
	s := openTest(t, Options{MaxBytes: 150})
	t.Cleanup(resilience.DisarmAll)
	if _, err := resilience.Arm("cas/evict", 0); err != nil {
		t.Fatal(err)
	}
	keys, _ := putN(t, s, "ir", 2) // second Put crosses the cap and sweeps
	if s.Counters()["evict_errors"] != 1 {
		t.Fatalf("evict_errors = %d, want 1", s.Counters()["evict_errors"])
	}
	if _, err := s.Get("ir", keys[1]); err != nil {
		t.Fatalf("entry lost to a contained evict fault: %v", err)
	}
	// The next Put retries the sweep and brings the store under cap.
	if err := s.Put("ir", Key([]byte("after")), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() > 2*150 {
		t.Fatalf("store never recovered from the faulted sweep: %d bytes", s.SizeBytes())
	}
}

// TestRenewSurvivesInjectedFault: the "lease/heartbeat" point panics
// inside Renew; the lease stays usable and the next renewal succeeds.
func TestRenewSurvivesInjectedFault(t *testing.T) {
	s := openTest(t, Options{})
	t.Cleanup(resilience.DisarmAll)
	l, err := s.Acquire("ir", Key([]byte("hb")))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if _, err := resilience.Arm("lease/heartbeat", 0); err != nil {
		t.Fatal(err)
	}
	if rerr := l.Renew(); rerr == nil || !strings.Contains(rerr.Error(), "lease/heartbeat") {
		t.Fatalf("Renew = %v, want injected-fault error", rerr)
	}
	if rerr := l.Renew(); rerr != nil {
		t.Fatalf("Renew after one-shot fault: %v", rerr)
	}
}

// TestInjectedScrubFaultSkipsEntry: the "cas/scrub" point panics while
// scrubbing one object; the pass counts a scrub error and must not
// quarantine the healthy object, which still reads afterwards.
func TestInjectedScrubFaultSkipsEntry(t *testing.T) {
	s := openTest(t, Options{})
	t.Cleanup(resilience.DisarmAll)
	key := Key([]byte("scrubbed"))
	if err := s.Put("ir", key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := resilience.Arm("cas/scrub", 0); err != nil {
		t.Fatal(err)
	}
	if rep := s.Scrub(); rep.Errors != 1 || rep.Quarantined != 0 {
		t.Fatalf("faulted Scrub = %+v, want Errors 1 and Quarantined 0", rep)
	}
	if got, err := s.Get("ir", key); err != nil || string(got) != "payload" {
		t.Fatalf("Get after faulted scrub = %q, %v", got, err)
	}
}

// TestWaitDelayBackoff: the follower poll delay starts at the base
// interval and doubles with equal jitter up to 16x, never below half
// the nominal step (the deterministic floor) and never above it.
func TestWaitDelayBackoff(t *testing.T) {
	s := openTest(t, Options{PollInterval: 10 * time.Millisecond})
	rng := waitSeed("owner", "ir", "key", 1)
	if d := s.waitDelay(&rng, 0); d != 10*time.Millisecond {
		t.Fatalf("attempt 0 delay = %v, want the base interval", d)
	}
	for attempt := 1; attempt < 10; attempt++ {
		shift := attempt
		if shift > 4 {
			shift = 4
		}
		nominal := (10 * time.Millisecond) << shift
		d := s.waitDelay(&rng, attempt)
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d delay = %v, want in [%v, %v]", attempt, d, nominal/2, nominal)
		}
	}
}

// TestLeaseTakeoverDuringGC is the satellite race: while one store runs
// GC sweeps in a tight loop under heavy cap pressure, a follower on a
// second store takes over a dead leader's expired lease, fills, and the
// filled entry must survive the sweeps (it is pinned by the lease).
func TestLeaseTakeoverDuringGC(t *testing.T) {
	dir := t.TempDir()
	opts := Options{LeaseTTL: 100 * time.Millisecond, PollInterval: 5 * time.Millisecond}
	sa, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("contested"))
	if _, err := sa.Acquire("resp", key); err != nil {
		t.Fatal(err) // leader acquires and "dies": no heartbeat, no release
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sa.opts.MaxBytes = 1 // every sweep wants to evict everything unpinned
		for {
			select {
			case <-stop:
				return
			default:
				sa.GC()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload, lease, werr := sb.WaitEntry(ctx, "resp", key)
	if werr != nil {
		t.Fatalf("WaitEntry: %v", werr)
	}
	if payload != nil {
		t.Fatal("no one filled yet; follower must get the lease")
	}
	if sb.Counters()["lease_takeovers"] == 0 {
		t.Fatal("follower acquired without taking over the dead lease")
	}
	want := []byte("filled-under-gc")
	if err := sb.Put("resp", key, want); err != nil {
		t.Fatalf("fill: %v", err)
	}
	// The fill target stays pinned until Release; sweeps keep running.
	time.Sleep(50 * time.Millisecond)
	got, gerr := sb.Get("resp", key)
	if gerr != nil {
		t.Fatalf("filled entry evicted while lease held: %v", gerr)
	}
	if string(got) != string(want) {
		t.Fatalf("entry bytes changed under GC: %q", got)
	}
	lease.Release()
	close(stop)
	wg.Wait()
}
