package cas

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// ptHeartbeat guards lease renewal: an injected panic mid-renew must
// surface as an error the heartbeat loop absorbs (the next tick
// retries; worst case followers take over and duplicate one fill),
// never kill the goroutine and silently orphan the lease.
var ptHeartbeat = resilience.Register("lease/heartbeat")

// Cache-fill leases: the cross-process single-flight protocol.
//
// A lease is a file leases/<kind>-<key>.lease containing the owner name,
// an absolute expiry and a random token naming this one acquisition.
// The protocol rides entirely on two atomic filesystem operations, so it
// needs no server:
//
//   - Acquire: create the file with O_EXCL. Exactly one process wins.
//   - Takeover: rename the expired file to a unique tombstone. Rename
//     is atomic, so exactly one of the racing followers claims the dead
//     lease; it then re-runs Acquire (and may still lose the O_EXCL
//     race to a third process — that's fine, someone leads).
//
// Leaders renew at TTL/3 via Heartbeat, so an expired lease means the
// leader missed several renewals: it is dead or wedged, and followers
// may take over. Release removes the file; a leader that dies without
// releasing is covered by expiry. A leader that only stalled past its
// TTL may resume after a follower took over: Renew and Release check
// the token first, so it neither rewrites nor removes its successor's
// lease.

// errLeaseLost is returned by Renew when the lease file no longer
// carries this lease's token: it expired and another process took over.
var errLeaseLost = errors.New("cas: lease lost to a takeover")

// ErrHeld is returned by Acquire when another live lease holds the key.
type ErrHeld struct {
	Owner   string
	Expires time.Time
}

func (e *ErrHeld) Error() string {
	return fmt.Sprintf("cas: lease held by %s until %s", e.Owner, e.Expires.Format(time.RFC3339Nano))
}

// Lease is a held cache-fill lease. The holder fills the entry, Puts
// it, then Releases; everyone else polls in WaitEntry. While held, the
// target object is pinned: GC and LRU eviction will not reap the entry
// the leader is about to write (or has just written).
type Lease struct {
	s        *Store
	path     string
	token    string        // this acquisition's identity in the lease file
	obj      string        // pinned object path, unpinned on Release
	released atomic.Bool   // read by the heartbeat goroutine
	stop     chan struct{} // closes to stop the heartbeat, if started
	done     chan struct{} // closed when the heartbeat goroutine exits
}

func (s *Store) leasePath(kind, key string) string {
	return filepath.Join(s.dir, "leases", kind+"-"+key+".lease")
}

// Acquire tries to become the filler for (kind, key). It returns a
// *Lease on success, an *ErrHeld when a live leader exists, or another
// error for environmental failures. An expired lease on disk is taken
// over (atomically, via rename) rather than waited on.
func (s *Store) Acquire(kind, key string) (*Lease, error) {
	if !validKind(kind) {
		return nil, fmt.Errorf("cas: bad kind %q", kind)
	}
	path := s.leasePath(kind, key)
	var tok [8]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return nil, fmt.Errorf("cas: lease %s: token: %w", path, err)
	}
	token := hex.EncodeToString(tok[:])
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			expiry := s.now().Add(s.opts.LeaseTTL)
			_, werr := fmt.Fprintf(f, "%s %d %s\n", s.opts.Owner, expiry.UnixNano(), token)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				os.Remove(path)
				return nil, fmt.Errorf("cas: lease %s: %w", path, werr)
			}
			s.acquires.Add(1)
			obj := s.objectPath(kind, key)
			s.pinPath(obj)
			return &Lease{s: s, path: path, token: token, obj: obj}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("cas: lease %s: %w", path, err)
		}
		owner, expires, _, rerr := readLease(path)
		if rerr != nil {
			fi, serr := os.Stat(path)
			if serr != nil {
				// The file vanished between OpenFile and read (released
				// or taken over); retry the create.
				if attempt < 16 {
					continue
				}
				return nil, fmt.Errorf("cas: lease %s: churning", path)
			}
			// The file exists but does not parse: its creator has not
			// finished writing it. It is held until one TTL after its
			// mtime, so a creator that died mid-write is taken over
			// like any expired leader.
			owner, expires = "?", fi.ModTime().Add(s.opts.LeaseTTL)
		}
		if s.now().Before(expires) {
			return nil, &ErrHeld{Owner: owner, Expires: expires}
		}
		// Expired: claim the corpse by renaming it. Only one follower's
		// rename succeeds; the losers loop and re-read.
		tomb := fmt.Sprintf("%s.dead-%s-%d", path, s.opts.Owner, s.now().UnixNano())
		if os.Rename(path, tomb) == nil {
			os.Remove(tomb)
			s.takeovers.Add(1)
		}
		if attempt >= 16 {
			return nil, fmt.Errorf("cas: lease %s: churning", path)
		}
	}
}

// readLease parses a lease file. A file without a token (written before
// leases carried one) parses with token "", which no live Lease holds.
func readLease(path string) (owner string, expires time.Time, token string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", time.Time{}, "", err
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 2 && len(fields) != 3 {
		return "", time.Time{}, "", fmt.Errorf("cas: malformed lease %q", string(raw))
	}
	ns, perr := strconv.ParseInt(fields[1], 10, 64)
	if perr != nil {
		return "", time.Time{}, "", fmt.Errorf("cas: malformed lease expiry %q", fields[1])
	}
	if len(fields) == 3 {
		token = fields[2]
	}
	return fields[0], time.Unix(0, ns), token, nil
}

// held reports whether the lease file still carries this lease's token.
// The check and the write or remove that follows are two steps, so a
// takeover can still slip between them; a leader would have to stall
// for a whole TTL inside that window.
func (l *Lease) held() bool {
	_, _, token, err := readLease(l.path)
	return err == nil && token == l.token
}

// Renew pushes the lease's expiry out by one TTL. Atomic via
// write-temp-then-rename, so followers reading concurrently see either
// the old expiry or the new one. A lease that was taken over is not
// renewed: Renew returns an error and leaves the successor's file alone.
// A panic during renewal (the "lease/heartbeat" fault point, a
// filesystem gone weird) is recovered into an error; renewal failure is
// survivable by design — the lease expires and a follower takes over
// the fill.
func (l *Lease) Renew() (err error) {
	if l.released.Load() {
		return errors.New("cas: renew after release")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cas: renew %s: panic: %v", l.path, r)
		}
	}()
	ptHeartbeat.Inject()
	if !l.held() {
		return fmt.Errorf("cas: renew %s: %w", l.path, errLeaseLost)
	}
	expiry := l.s.now().Add(l.s.opts.LeaseTTL)
	tmp, err := os.CreateTemp(filepath.Dir(l.path), ".renew-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := fmt.Fprintf(tmp, "%s %d %s\n", l.s.opts.Owner, expiry.UnixNano(), l.token)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, l.path)
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cas: renew %s: %w", l.path, werr)
	}
	return nil
}

// Heartbeat renews the lease every TTL/3 in a background goroutine
// until Release, or until a renewal finds the lease taken over. Long
// fills (training runs for seconds) call this once right after Acquire
// so followers never misread a live leader as dead.
func (l *Lease) Heartbeat() {
	if l.stop != nil {
		return
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	interval := l.s.opts.LeaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(l.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				if err := l.Renew(); err != nil {
					l.s.heartbeatErrors.Add(1)
					if errors.Is(err, errLeaseLost) {
						return
					}
				}
			}
		}
	}()
}

// Release ends the lease: the heartbeat stops (Release waits for it, so
// no renewal can recreate the file afterwards), the target object is
// unpinned, and the lease file is removed if it is still this lease's,
// waking followers immediately. Safe to call twice.
func (l *Lease) Release() {
	if l.released.Swap(true) {
		return
	}
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.s.unpinPath(l.obj)
	if l.held() {
		os.Remove(l.path)
	}
}

// WaitEntry is the follower side of cross-process single-flight, and
// the only entry point most callers need. It returns one of:
//
//   - (payload, nil, nil): the entry exists (possibly filled by
//     another process while we waited);
//   - (nil, lease, nil): no entry and we now hold the fill lease —
//     the caller must fill, Put, and Release (a heartbeat is already
//     running);
//   - (nil, nil, err): the context died while waiting.
//
// The loop tries Get, then Acquire, then sleeps; a leader crash is
// covered because Acquire takes over expired leases. Sleeps use
// jittered exponential backoff (PollInterval doubling up to 16x, equal
// jitter): when a lease expires with N followers parked on it, a fixed
// interval would march all N into Get/Acquire in lockstep every tick.
func (s *Store) WaitEntry(ctx context.Context, kind, key string) ([]byte, *Lease, error) {
	rng := waitSeed(s.opts.Owner, kind, key, s.now().UnixNano())
	for attempt := 0; ; attempt++ {
		payload, err := s.Get(kind, key)
		if err == nil {
			return payload, nil, nil
		}
		if !errors.Is(err, ErrMiss) {
			return nil, nil, err
		}
		lease, aerr := s.Acquire(kind, key)
		if aerr == nil {
			lease.Heartbeat()
			return nil, lease, nil
		}
		var held *ErrHeld
		if !errors.As(aerr, &held) {
			return nil, nil, aerr
		}
		if attempt == 0 {
			s.waits.Add(1)
		}
		select {
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("cas: waiting for %s/%s (leader %s): %w", kind, key, held.Owner, ctx.Err())
		case <-time.After(s.waitDelay(&rng, attempt)):
		}
	}
}

// waitDelay picks the sleep before poll attempt+1: the base interval on
// the first poll (latency matters on the common short wait), then
// doubling with equal jitter — half deterministic, half random — capped
// at 16x the base.
func (s *Store) waitDelay(rng *uint64, attempt int) time.Duration {
	base := s.opts.PollInterval
	if attempt == 0 {
		return base
	}
	shift := attempt
	if shift > 4 {
		shift = 4
	}
	d := base << shift
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(splitmix(rng)%uint64(half))
}

// waitSeed seeds one WaitEntry call's jitter stream: FNV-1a over owner
// and key mixed with the call time, so co-waiting processes (and two
// waits in one process) decorrelate.
func waitSeed(owner, kind, key string, nanos int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range []string{owner, kind, key} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	h ^= uint64(nanos)
	h *= prime64
	return h
}

// splitmix advances a splitmix64 stream; cheap, seedable, and good
// enough for sleep jitter.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
