// Package cas is the compile farm's shared artifact store: a
// content-addressed, persistent on-disk cache mapping SHA-256 keys to
// compiler artifacts (trained profiles, rendered responses). Many
// daemons sharing one store directory is the point — every operation
// is crash-safe (write-temp-then-rename) and every entry is
// self-validating (versioned header + payload checksum), so a reader
// can never be corrupted by a writer dying mid-Put.
//
// Corrupt entries degrade, never crash: a bad header, a truncated
// payload, or a checksum mismatch moves the file into quarantine/ and
// reports a cache miss, reusing the resilience degrade path ("cas/read"
// is a registered fault point; TestInjectedReadFaultDegrades arms it).
//
// The store also carries the farm's cross-process single-flight: lease
// files (see lease.go) let N daemons agree that exactly one of them
// fills a missing key while the rest poll — or take over when the
// leader dies.
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// ptRead guards entry validation: an injected panic while decoding an
// on-disk entry must quarantine the file and report a miss, not kill
// the daemon.
var ptRead = resilience.Register("cas/read")

// ptWrite guards Put: a store that cannot write (ENOSPC, EIO, an
// injected panic) must surface an error the caller treats as a counted
// miss — compile locally, skip the fill — never a crash.
var ptWrite = resilience.Register("cas/write")

// ptEvict guards the LRU sweep: a failure while evicting must abandon
// the sweep (the next Put retries it), not take down the daemon that
// happened to trigger it.
var ptEvict = resilience.Register("cas/evict")

// magic is the entry-header magic plus format version. Bump the version
// to invalidate every existing entry on disk: old entries then fail
// validation and are quarantined, which is exactly the safe behavior
// for a format change.
const magic = "hlocas1"

// ErrMiss is returned by Get when the key has no (valid) entry.
var ErrMiss = errors.New("cas: miss")

// CorruptError wraps ErrMiss for entries that existed but failed
// validation; Path is where the offender was quarantined.
type CorruptError struct {
	Key    string
	Reason string
	Path   string // quarantine location, "" if the move itself failed
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("cas: corrupt entry %s (%s): quarantined to %s", e.Key, e.Reason, e.Path)
}

func (e *CorruptError) Unwrap() error { return ErrMiss }

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of objects/ (headers included);
	// Put evicts least-recently-used entries past it. 0 means 256 MiB.
	MaxBytes int64
	// Owner names this process in lease files, for debuggability.
	// Defaults to "pid<pid>".
	Owner string
	// LeaseTTL is how long a cache-fill lease lives without renewal
	// before followers may take it over. 0 means 5s. Leaders renew at
	// TTL/3 (see Lease.Heartbeat), so takeover implies leader death.
	LeaseTTL time.Duration
	// PollInterval is the base interval at which WaitEntry re-checks
	// for the leader's entry or lease death; successive polls back off
	// exponentially (with jitter) up to 16x this. 0 means 20ms.
	PollInterval time.Duration
	// QuarantineMaxBytes caps quarantine/. Beyond it the oldest
	// quarantined entries are rotated out, newest kept. 0 means 16 MiB.
	QuarantineMaxBytes int64
	// QuarantineMaxAge ages quarantined entries out during GC and Scrub
	// even under the byte cap: after a fix ships there is nothing left
	// to learn from a months-old torn object. 0 means 24h.
	QuarantineMaxAge time.Duration
	// GCIdleAge is the generation boundary for the background sweep:
	// entries idle longer than this are "old generation" and evicted
	// first when the store is over MaxBytes. 0 means 10 minutes.
	GCIdleAge time.Duration
}

// Store is one process's handle on a shared artifact directory. All
// methods are safe for concurrent use within a process; cross-process
// coordination rides on atomic rename and lease files.
type Store struct {
	dir  string
	opts Options
	now  func() time.Time // swapped by tests

	evictMu sync.Mutex   // serializes LRU/GC sweeps within this process
	size    atomic.Int64 // objects/ bytes, maintained incrementally

	pinMu sync.Mutex
	pins  map[string]int // object path -> refcount; pinned paths are unevictable

	qMu sync.Mutex // serializes quarantine rotation

	gcStop chan struct{} // closes to stop the background GC loop
	gcDone chan struct{}

	hits            atomic.Int64
	misses          atomic.Int64
	puts            atomic.Int64
	evictions       atomic.Int64
	quarantines     atomic.Int64
	acquires        atomic.Int64
	waits           atomic.Int64
	takeovers       atomic.Int64
	writeErrors     atomic.Int64
	evictErrors     atomic.Int64
	scrubRepairs    atomic.Int64
	quarantineDrops atomic.Int64
	gcSweeps        atomic.Int64
	heartbeatErrors atomic.Int64
}

// Open creates (if needed) and scans a store directory. The scan prices
// existing objects so the LRU cap holds across restarts.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.Owner == "" {
		opts.Owner = fmt.Sprintf("pid%d", os.Getpid())
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 5 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 20 * time.Millisecond
	}
	if opts.QuarantineMaxBytes <= 0 {
		opts.QuarantineMaxBytes = 16 << 20
	}
	if opts.QuarantineMaxAge <= 0 {
		opts.QuarantineMaxAge = 24 * time.Hour
	}
	if opts.GCIdleAge <= 0 {
		opts.GCIdleAge = 10 * time.Minute
	}
	s := &Store{dir: dir, opts: opts, now: time.Now, pins: make(map[string]int)}
	for _, sub := range []string{"objects", "leases", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cas: open %s: %w", dir, err)
		}
	}
	var total int64
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cas: scan %s: %w", dir, err)
	}
	s.size.Store(total)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key hashes a sequence of byte strings into a store key. Each part is
// length-prefixed before hashing, so ("ab","c") and ("a","bc") — or an
// option string that happens to end where a source begins — cannot
// collide. Canonicalize options by formatting them into one of the
// parts; the caller owns that canonical form.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, p := range parts {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(p)))])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validKind keeps kind names path-safe: lowercase letters, digits, '-'.
func validKind(kind string) bool {
	if kind == "" {
		return false
	}
	for i := 0; i < len(kind); i++ {
		c := kind[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// objectPath shards entries by the first key byte so no directory grows
// unboundedly: objects/<kind>/<aa>/<key>.
func (s *Store) objectPath(kind, key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, "objects", kind, shard, key)
}

// Put stores payload under (kind, key), atomically: the entry is
// assembled in a temp file in the destination directory and renamed
// into place, so concurrent readers see either nothing or a complete
// entry, never a torn one. Re-putting an existing key is a cheap no-op
// (content-addressed entries are immutable).
//
// A Put that cannot write — disk full, I/O error, an injected
// "cas/write" fault — returns an error and bumps the write_errors
// counter; callers degrade to computing without the store. It never
// panics out.
func (s *Store) Put(kind, key string, payload []byte) (err error) {
	if !validKind(kind) {
		return fmt.Errorf("cas: bad kind %q", kind)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cas: put %s/%s: panic: %v", kind, key, r)
		}
		if err != nil {
			s.writeErrors.Add(1)
		}
	}()
	ptWrite.Inject()
	dst := s.objectPath(kind, key)
	if _, serr := os.Stat(dst); serr == nil {
		return nil
	}
	// Pin the destination for the rest of the Put: a concurrent sweep
	// must never reap the entry we are about to report as stored.
	s.pinPath(dst)
	defer s.unpinPath(dst)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", kind, key, err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d %s\n", magic, kind, len(payload), hex.EncodeToString(sum[:]))
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", kind, key, err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.WriteString(header); err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, dst)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cas: put %s/%s: %w", kind, key, err)
	}
	s.puts.Add(1)
	s.size.Add(int64(len(header) + len(payload)))
	if s.size.Load() > s.opts.MaxBytes {
		s.evict()
	}
	return nil
}

// pinPath marks the object at path unevictable until the matching
// unpinPath. Pins are refcounted and honored by both the inline LRU pass
// and the background GC. Put pins its own destination and a held fill
// lease pins its target.
func (s *Store) pinPath(path string) {
	s.pinMu.Lock()
	s.pins[path]++
	s.pinMu.Unlock()
}

func (s *Store) unpinPath(path string) {
	s.pinMu.Lock()
	if s.pins[path]--; s.pins[path] <= 0 {
		delete(s.pins, path)
	}
	s.pinMu.Unlock()
}

func (s *Store) isPinned(path string) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return s.pins[path] > 0
}

// Get returns the payload stored under (kind, key), or ErrMiss. A
// present-but-invalid entry is quarantined and reported as a
// *CorruptError (which unwraps to ErrMiss, so callers can treat both
// as "recompute"). Hits refresh the entry's mtime, which is the LRU
// clock.
func (s *Store) Get(kind, key string) ([]byte, error) {
	if !validKind(kind) {
		return nil, fmt.Errorf("cas: bad kind %q", kind)
	}
	path := s.objectPath(kind, key)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		return nil, ErrMiss
	}
	if err != nil {
		return nil, fmt.Errorf("cas: get %s/%s: %w", kind, key, err)
	}
	payload, verr := validateEntry(kind, raw)
	if verr != nil {
		s.misses.Add(1)
		return nil, s.quarantine(kind, key, path, int64(len(raw)), verr)
	}
	s.hits.Add(1)
	now := s.now()
	_ = os.Chtimes(path, now, now) // best-effort LRU touch
	return payload, nil
}

// validateEntry checks an entry's header and checksum, recovering any
// panic (a truncated header slice, an injected fault) into an error:
// this is the degrade boundary the "cas/read" point exercises.
func validateEntry(kind string, raw []byte) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic validating entry: %v", r)
		}
	}()
	ptRead.Inject()
	nl := strings.IndexByte(string(raw), '\n')
	if nl < 0 {
		return nil, errors.New("no header line")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 4 || fields[0] != magic {
		return nil, fmt.Errorf("bad header %q", string(raw[:nl]))
	}
	if fields[1] != kind {
		return nil, fmt.Errorf("kind mismatch: entry says %q", fields[1])
	}
	var n int
	if _, err := fmt.Sscanf(fields[2], "%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("bad length %q", fields[2])
	}
	payload = raw[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[3] {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a corrupt entry aside (so the next Get doesn't trip
// on it again) and builds the CorruptError the caller returns. The
// quarantine timestamp lives in the filename — rename preserves the
// original mtime, which may be arbitrarily old.
func (s *Store) quarantine(kind, key, path string, size int64, reason error) error {
	qname := fmt.Sprintf("%s-%s.%d", kind, key, s.now().UnixNano())
	qpath := filepath.Join(s.dir, "quarantine", qname)
	if err := os.Rename(path, qpath); err != nil {
		// Another process may have quarantined (or evicted) it first.
		qpath = ""
	} else {
		s.size.Add(-size)
		s.enforceQuarantineCap()
	}
	s.quarantines.Add(1)
	return &CorruptError{Key: kind + "/" + key, Reason: reason.Error(), Path: qpath}
}

// evict sweeps objects/ least-recently-used-first until the store fits
// under MaxBytes again. Pinned entries — in-flight Puts and lease fill
// targets — are never removed, whatever their age. A panic during the
// sweep (an injected "cas/evict" fault, a pathological filesystem) is
// contained: the sweep is abandoned and the next Put retries it.
func (s *Store) evict() {
	defer func() {
		if r := recover(); r != nil {
			s.evictErrors.Add(1)
		}
	}()
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	ptEvict.Inject()
	if s.size.Load() <= s.opts.MaxBytes {
		return
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	_ = filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			entries = append(entries, entry{path, info.Size(), info.ModTime()})
		}
		return nil
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if s.size.Load() <= s.opts.MaxBytes {
			break
		}
		if s.isPinned(e.path) {
			continue
		}
		if os.Remove(e.path) == nil {
			s.size.Add(-e.size)
			s.evictions.Add(1)
		}
	}
}

// SizeBytes returns the store's current accounting of objects/ bytes.
func (s *Store) SizeBytes() int64 { return s.size.Load() }

// Counters snapshots the store's operation counters, keyed by stable
// names ready for metrics export.
func (s *Store) Counters() map[string]int64 {
	return map[string]int64{
		"hits":             s.hits.Load(),
		"misses":           s.misses.Load(),
		"puts":             s.puts.Load(),
		"evictions":        s.evictions.Load(),
		"quarantines":      s.quarantines.Load(),
		"lease_acquires":   s.acquires.Load(),
		"lease_waits":      s.waits.Load(),
		"lease_takeovers":  s.takeovers.Load(),
		"write_errors":     s.writeErrors.Load(),
		"evict_errors":     s.evictErrors.Load(),
		"scrub_repairs":    s.scrubRepairs.Load(),
		"quarantine_drops": s.quarantineDrops.Load(),
		"gc_sweeps":        s.gcSweeps.Load(),
		"heartbeat_errors": s.heartbeatErrors.Load(),
	}
}
