package cas

// Background GC and crash recovery for the shared artifact store.
//
// The inline LRU pass in Put only fires when this process writes past
// MaxBytes; a farm daemon that mostly reads never reclaims anything,
// and crash debris (orphaned .tmp files, torn objects, stale lease
// tombstones) accumulates forever. Two maintenance passes close those
// gaps:
//
//   - GC (periodic, StartGC): re-prices the store from disk — sibling
//     processes' Puts drift this process's incremental size counter —
//     removes write/renew debris left by crashed daemons, then runs a
//     generational sweep: entries idle past GCIdleAge ("old
//     generation") are evicted first, down to a low watermark below
//     MaxBytes so steady-state Puts stop tripping the inline pass;
//     recently-used ("young") entries go only if the old generation
//     alone cannot fit the store. Pinned entries are never touched.
//
//   - Scrub (startup, or hlod -cache-scrub): re-validates every
//     object's header and checksum, quarantines torn entries before a
//     request can trip on them, restores quarantined files that
//     validate again into empty slots, and removes temp debris.
//
// Both passes enforce the quarantine bound: quarantine/ is capped by
// bytes (rotation, oldest out first) and by age.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/resilience"
)

// ptScrub guards per-object scrub validation: an injected panic while
// scrubbing one entry must skip that entry and continue the pass, not
// abort daemon startup.
var ptScrub = resilience.Register("cas/scrub")

// debrisAge is how old a .tmp-* / .renew-* / tombstone file must be
// before maintenance removes it: anything younger may belong to a live
// in-flight write.
const debrisAge = time.Minute

// GCStats summarizes one generational sweep.
type GCStats struct {
	Scanned         int   // objects considered
	EvictedOld      int   // old-generation entries removed
	EvictedYoung    int   // young entries removed (old gen was not enough)
	PinnedSkips     int   // entries spared by a pin
	FreedBytes      int64 // total bytes reclaimed from objects/
	TmpRemoved      int   // crash debris files removed
	QuarantineDrops int
}

// GC runs one maintenance sweep; see the package comment above for the
// generational policy. Safe to run concurrently with Put/Get in this
// and other processes: eviction is atomic (Remove), readers of a
// removed entry just miss and refill.
func (s *Store) GC() GCStats {
	var st GCStats
	defer func() {
		if r := recover(); r != nil {
			s.evictErrors.Add(1)
		}
	}()
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	ptEvict.Inject()

	now := s.now()
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	_ = filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			// A crashed Put's temp file: never renamed, never read.
			if now.Sub(info.ModTime()) > debrisAge && os.Remove(path) == nil {
				st.TmpRemoved++
			}
			return nil
		}
		entries = append(entries, entry{path, info.Size(), info.ModTime()})
		total += info.Size()
		return nil
	})
	st.Scanned = len(entries)
	// Re-price from disk: sibling daemons' Puts and evictions are
	// invisible to this process's incremental counter.
	s.size.Store(total)

	if total > s.opts.MaxBytes {
		sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
		// Old generation first, down to the low watermark; then young
		// entries only as far as the hard cap.
		low := s.opts.MaxBytes - s.opts.MaxBytes/8
		for _, e := range entries {
			old := now.Sub(e.mtime) > s.opts.GCIdleAge
			target := s.opts.MaxBytes
			if old {
				target = low
			}
			if s.size.Load() <= target {
				if old {
					continue // young entries may still be over the hard cap
				}
				break
			}
			if s.isPinned(e.path) {
				st.PinnedSkips++
				continue
			}
			if os.Remove(e.path) == nil {
				s.size.Add(-e.size)
				s.evictions.Add(1)
				st.FreedBytes += e.size
				if old {
					st.EvictedOld++
				} else {
					st.EvictedYoung++
				}
			}
		}
	}

	st.TmpRemoved += s.removeLeaseDebris(now)
	st.QuarantineDrops = s.enforceQuarantineCap()
	s.gcSweeps.Add(1)
	return st
}

// removeLeaseDebris clears crashed-renew temp files and unclaimed
// takeover tombstones from leases/. Live lease files are left alone.
func (s *Store) removeLeaseDebris(now time.Time) int {
	removed := 0
	dir := filepath.Join(s.dir, "leases")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ".renew-") && !strings.Contains(name, ".dead-") {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil || now.Sub(info.ModTime()) <= debrisAge {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// StartGC runs GC every interval in a background goroutine until
// StopGC. A second call while a loop is running is a no-op.
func (s *Store) StartGC(interval time.Duration) {
	if interval <= 0 || s.gcStop != nil {
		return
	}
	s.gcStop = make(chan struct{})
	s.gcDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.GC()
			}
		}
	}(s.gcStop, s.gcDone)
}

// StopGC stops the background loop started by StartGC and waits for an
// in-flight sweep to finish.
func (s *Store) StopGC() {
	if s.gcStop == nil {
		return
	}
	close(s.gcStop)
	<-s.gcDone
	s.gcStop = nil
	s.gcDone = nil
}

// ScrubReport summarizes one crash-recovery scrub.
type ScrubReport struct {
	Checked         int // objects validated
	Quarantined     int // torn/corrupt objects moved aside
	Repaired        int // quarantined objects that validated and went back
	Errors          int // objects skipped after a recovered scrub panic
	TmpRemoved      int
	QuarantineDrops int
}

// Scrub is the startup pass a daemon runs over a store that may have
// been written by processes that died hard: it validates every object
// (header, length, checksum) and quarantines failures now, at boot,
// rather than letting the first unlucky request find them; it restores
// quarantined entries that validate again (a spurious quarantine from a
// transient read error or injected fault) into still-empty slots; and
// it clears crash debris and enforces the quarantine bound.
func (s *Store) Scrub() ScrubReport {
	var rep ScrubReport
	now := s.now()
	objects := filepath.Join(s.dir, "objects")
	_ = filepath.WalkDir(objects, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			if now.Sub(info.ModTime()) > debrisAge && os.Remove(path) == nil {
				rep.TmpRemoved++
			}
			return nil
		}
		// objects/<kind>/<shard>/<key>
		rel, rerr := filepath.Rel(objects, path)
		if rerr != nil {
			return nil
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) != 3 {
			return nil
		}
		kind, key := parts[0], parts[2]
		ok, injected, verr := s.scrubOne(kind, path)
		rep.Checked++
		switch {
		case ok:
		case injected:
			rep.Errors++ // degrade: skip this object, finish the pass
		case verr != nil:
			_ = s.quarantine(kind, key, path, info.Size(), verr)
			rep.Quarantined++
		}
		return nil
	})
	rep.Repaired = s.repairFromQuarantine()
	rep.QuarantineDrops = s.enforceQuarantineCap()
	return rep
}

// scrubOne validates a single object behind a recover boundary: a panic
// (injected "cas/scrub" fault or otherwise) becomes an error and the
// pass continues with the next object. Injected faults are flagged so
// the caller skips the object instead of quarantining it — the object
// itself is fine, the scrubber was the thing that failed.
func (s *Store) scrubOne(kind, path string) (ok, injected bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			if pt, isInj := resilience.IsInjected(r); isInj {
				injected, err = true, fmt.Errorf("injected fault at %s", pt)
			} else {
				err = fmt.Errorf("panic scrubbing entry: %v", r)
			}
		}
	}()
	ptScrub.Inject()
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		return false, false, rerr
	}
	if _, verr := validateEntry(kind, raw); verr != nil {
		return false, false, verr
	}
	return true, false, nil
}

// repairFromQuarantine re-validates quarantined entries and moves the
// ones that check out back into objects/ — but only into empty slots;
// a live entry always wins over a quarantined one.
func (s *Store) repairFromQuarantine() int {
	repaired := 0
	qdir := filepath.Join(s.dir, "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		kind, key, _, ok := parseQuarantineName(e.Name())
		if !ok {
			continue
		}
		qpath := filepath.Join(qdir, e.Name())
		raw, rerr := os.ReadFile(qpath)
		if rerr != nil {
			continue
		}
		if _, verr := validateEntry(kind, raw); verr != nil {
			continue // still corrupt; the cap/age rotation owns it
		}
		dst := s.objectPath(kind, key)
		if _, serr := os.Stat(dst); serr == nil {
			// The slot was refilled; the quarantined copy is redundant.
			_ = os.Remove(qpath)
			continue
		}
		if os.MkdirAll(filepath.Dir(dst), 0o755) != nil {
			continue
		}
		if os.Rename(qpath, dst) == nil {
			s.size.Add(int64(len(raw)))
			s.scrubRepairs.Add(1)
			repaired++
		}
	}
	return repaired
}

// parseQuarantineName splits "<kind>-<key>.<unixnano>". Keys are hex
// (no '-'), so the last '-' before the final '.' separates kind from
// key even though kinds may themselves contain dashes.
func parseQuarantineName(name string) (kind, key string, stamp int64, ok bool) {
	dot := strings.LastIndexByte(name, '.')
	if dot < 0 {
		return "", "", 0, false
	}
	stamp, err := strconv.ParseInt(name[dot+1:], 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	dash := strings.LastIndexByte(name[:dot], '-')
	if dash <= 0 || dash == dot-1 {
		return "", "", 0, false
	}
	return name[:dash], name[dash+1 : dot], stamp, true
}

// enforceQuarantineCap bounds quarantine/ by age and by bytes: entries
// older than QuarantineMaxAge go first, then the oldest entries rotate
// out until the newest fit under QuarantineMaxBytes. Returns the number
// of entries dropped.
func (s *Store) enforceQuarantineCap() int {
	s.qMu.Lock()
	defer s.qMu.Unlock()
	qdir := filepath.Join(s.dir, "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		return 0
	}
	type qentry struct {
		path  string
		size  int64
		stamp time.Time
	}
	var entries []qentry
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		// Quarantine time lives in the filename (rename preserves the
		// object's original, possibly ancient, mtime).
		stamp := info.ModTime()
		if _, _, ns, ok := parseQuarantineName(e.Name()); ok {
			stamp = time.Unix(0, ns)
		}
		entries = append(entries, qentry{filepath.Join(qdir, e.Name()), info.Size(), stamp})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].stamp.After(entries[j].stamp) })
	cutoff := s.now().Add(-s.opts.QuarantineMaxAge)
	var kept int64
	drops := 0
	for _, e := range entries {
		if e.stamp.Before(cutoff) || kept+e.size > s.opts.QuarantineMaxBytes {
			if os.Remove(e.path) == nil {
				drops++
			}
			continue
		}
		kept += e.size
	}
	if drops > 0 {
		s.quarantineDrops.Add(int64(drops))
	}
	return drops
}
