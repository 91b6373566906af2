package cas

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// twoDaemons opens two Stores over one shared directory, as two hlod
// processes sharing -cache-dir would.
func twoDaemons(t *testing.T, opts Options) (*Store, *Store) {
	t.Helper()
	dir := t.TempDir()
	a := opts
	a.Owner = "daemon-a"
	b := opts
	b.Owner = "daemon-b"
	sa, err := Open(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Open(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	return sa, sb
}

func TestLeaseExclusive(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: time.Minute})
	key := Key([]byte("x"))
	la, err := sa.Acquire("resp", key)
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	_, err = sb.Acquire("resp", key)
	var held *ErrHeld
	if !errors.As(err, &held) {
		t.Fatalf("second Acquire = %v, want *ErrHeld", err)
	}
	if held.Owner != "daemon-a" {
		t.Fatalf("holder = %q, want daemon-a", held.Owner)
	}
	la.Release()
	lb, err := sb.Acquire("resp", key)
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	lb.Release()
}

// TestStaleLeaseExpiry: a lease whose owner stopped renewing must
// become acquirable after TTL (satellite case "stale lease expiry").
func TestStaleLeaseExpiry(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: time.Minute})
	key := Key([]byte("stale"))
	if _, err := sa.Acquire("ir", key); err != nil {
		t.Fatal(err)
	}
	// Advance daemon B's clock past the TTL instead of sleeping.
	sb.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	lb, err := sb.Acquire("ir", key)
	if err != nil {
		t.Fatalf("Acquire over stale lease = %v, want takeover", err)
	}
	lb.Release()
	if sb.Counters()["lease_takeovers"] != 1 {
		t.Fatalf("takeovers = %d, want 1", sb.Counters()["lease_takeovers"])
	}
}

// TestAcquireWaitsOnHalfWrittenLease: a lease file that exists but does
// not parse yet — its creator won O_EXCL and has not written it — is
// held, not an error, and is taken over once it is a TTL old.
func TestAcquireWaitsOnHalfWrittenLease(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: time.Minute})
	key := Key([]byte("half-written"))
	if err := os.WriteFile(sa.leasePath("resp", key), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var held *ErrHeld
	if _, err := sb.Acquire("resp", key); !errors.As(err, &held) {
		t.Fatalf("Acquire over a half-written lease = %v, want *ErrHeld", err)
	}
	sb.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	lb, err := sb.Acquire("resp", key)
	if err != nil {
		t.Fatalf("Acquire over a half-written lease a TTL old = %v, want takeover", err)
	}
	lb.Release()
}

// TestStaleLeaderCannotClobberSuccessor: a leader that stalls past its
// TTL (SIGSTOP, a long GC pause) resumes after a follower has taken the
// lease over. Its heartbeat Renew must fail instead of rewriting the
// successor's file back to itself, and its Release must leave the
// successor's live lease in place, so a third daemon still waits rather
// than filling the key a second time.
func TestStaleLeaderCannotClobberSuccessor(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: time.Minute})
	sc, err := Open(sa.Dir(), Options{Owner: "daemon-c", LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("stalled"))
	la, err := sa.Acquire("resp", key)
	if err != nil {
		t.Fatal(err)
	}
	// Daemon A stalls; B's clock runs past A's TTL and B takes over.
	sb.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	lb, err := sb.Acquire("resp", key)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}

	if err := la.Renew(); err == nil {
		t.Fatal("stale leader renewed a lease it no longer holds")
	}
	la.Release()
	_, err = sc.Acquire("resp", key)
	var held *ErrHeld
	if !errors.As(err, &held) {
		t.Fatalf("third Acquire after the stale Release = %v, want *ErrHeld", err)
	}
	if held.Owner != "daemon-b" {
		t.Fatalf("holder = %q, want the successor daemon-b", held.Owner)
	}

	// The successor still owns its lease and releases it normally.
	if err := lb.Renew(); err != nil {
		t.Fatalf("successor Renew: %v", err)
	}
	lb.Release()
	lc, err := sc.Acquire("resp", key)
	if err != nil {
		t.Fatalf("Acquire after the successor's Release: %v", err)
	}
	lc.Release()
}

// TestLeaderCrashFollowerTakeover: daemon A acquires the fill lease and
// "crashes" (never Puts, never Releases, no heartbeat). Daemon B's
// WaitEntry must first wait on the live lease, then take over once it
// expires, fill, and serve (satellite case "leader crash mid-fill").
func TestLeaderCrashFollowerTakeover(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: 150 * time.Millisecond, PollInterval: 10 * time.Millisecond})
	key := Key([]byte("crash"))
	if _, err := sa.Acquire("resp", key); err != nil {
		t.Fatal(err)
	}
	// No heartbeat: the "leader" is dead from here on.

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	payload, lease, err := sb.WaitEntry(ctx, "resp", key)
	if err != nil {
		t.Fatalf("WaitEntry: %v", err)
	}
	if payload != nil || lease == nil {
		t.Fatalf("WaitEntry = (%v, %v), want takeover lease", payload, lease)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("took over after %v, before the lease could expire", waited)
	}
	if err := sb.Put("resp", key, []byte("filled-by-b")); err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if got, err := sb.Get("resp", key); err != nil || string(got) != "filled-by-b" {
		t.Fatalf("post-takeover Get = %q, %v", got, err)
	}
	if sb.Counters()["lease_waits"] == 0 {
		t.Fatal("follower never counted a wait")
	}
}

// TestHeartbeatKeepsLeaseAlive: a slow fill with an active heartbeat
// must NOT be taken over, even well past the original TTL.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: 120 * time.Millisecond, PollInterval: 10 * time.Millisecond})
	key := Key([]byte("slow"))
	la, err := sa.Acquire("resp", key)
	if err != nil {
		t.Fatal(err)
	}
	la.Heartbeat()
	defer la.Release()
	// Wait several TTLs; B must still see a live holder.
	time.Sleep(400 * time.Millisecond)
	_, err = sb.Acquire("resp", key)
	var held *ErrHeld
	if !errors.As(err, &held) {
		t.Fatalf("Acquire during heartbeat = %v, want *ErrHeld", err)
	}
	if sb.Counters()["lease_takeovers"] != 0 {
		t.Fatal("live lease was taken over")
	}
}

// TestRacingDaemonsFillOnce is the satellite's -race case: two stores
// (daemons) × several goroutines all demand the same key; exactly one
// fill must happen and every waiter must read the same payload.
func TestRacingDaemonsFillOnce(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: 2 * time.Second, PollInterval: 2 * time.Millisecond})
	stores := []*Store{sa, sb}
	key := Key([]byte("contended"))
	want := "the-one-true-artifact"

	var fills atomic.Int64
	var wg sync.WaitGroup
	results := make([]string, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := stores[i%2]
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			payload, lease, err := s.WaitEntry(ctx, "resp", key)
			if err != nil {
				errs[i] = err
				return
			}
			if lease != nil {
				fills.Add(1)
				time.Sleep(20 * time.Millisecond) // a fill takes a while
				if err := s.Put("resp", key, []byte(want)); err != nil {
					errs[i] = err
				}
				lease.Release()
				results[i] = want
				return
			}
			results[i] = string(payload)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := fills.Load(); n != 1 {
		t.Fatalf("fills = %d, want exactly 1", n)
	}
	for i, r := range results {
		if r != want {
			t.Fatalf("waiter %d read %q", i, r)
		}
	}
}

func TestWaitEntryHonorsContext(t *testing.T) {
	sa, sb := twoDaemons(t, Options{LeaseTTL: time.Minute, PollInterval: 5 * time.Millisecond})
	key := Key([]byte("forever"))
	if _, err := sa.Acquire("resp", key); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, _, err := sb.WaitEntry(ctx, "resp", key)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitEntry = %v, want DeadlineExceeded", err)
	}
}
