package memo_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/memo"
)

// waitingCtx closes waiting the first time Done is called: Do and
// cas.WaitEntry select on Done only once their caller waits on someone
// else's fill, so a test can tell that a caller is parked.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func TestConcurrentCallersFillOnce(t *testing.T) {
	g := memo.Group[int]{Retain: true}
	const n = 16
	var fills, fillers, arrived atomic.Int32
	all := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if arrived.Add(1) == n {
				close(all)
			}
			v, ev, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				fills.Add(1)
				<-all // hold the fill until every caller has arrived
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			if ev&memo.Shared == 0 {
				fillers.Add(1)
			}
		}()
	}
	wg.Wait()
	if fills.Load() != 1 || fillers.Load() != 1 {
		t.Fatalf("fills = %d, callers reporting the fill = %d; want 1 and 1", fills.Load(), fillers.Load())
	}
}

// TestCanceledFillIsTakenOver: the filling caller's cancellation is its
// own; a caller waiting on that fill fills again under its own context,
// whether or not the Group retains values.
func TestCanceledFillIsTakenOver(t *testing.T) {
	for _, retain := range []bool{true, false} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			g := memo.Group[string]{Retain: retain}
			actx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{})
			aerr := make(chan error, 1)
			go func() {
				_, _, err := g.Do(actx, "k", func(ctx context.Context) (string, error) {
					close(started)
					<-ctx.Done()
					return "", fmt.Errorf("fill: %w", ctx.Err())
				})
				aerr <- err
			}()
			<-started

			bctx := newWaitingCtx(context.Background())
			type result struct {
				v   string
				ev  memo.Event
				err error
			}
			bres := make(chan result, 1)
			go func() {
				v, ev, err := g.Do(bctx, "k", func(ctx context.Context) (string, error) {
					if ctx != context.Context(bctx) {
						t.Error("takeover fill did not run under the waiter's context")
					}
					return "b", nil
				})
				bres <- result{v, ev, err}
			}()
			<-bctx.waiting
			cancel()

			if err := <-aerr; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled filler got %v, want context.Canceled", err)
			}
			b := <-bres
			if b.err != nil || b.v != "b" || b.ev&memo.Shared != 0 {
				t.Fatalf("waiter got %q, %v, %v; want its own fill \"b\"", b.v, b.ev, b.err)
			}
		})
	}
}

func TestPermanentErrorRetention(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		retain bool
		fills  int
	}{{true, 1}, {false, 2}} {
		g := memo.Group[int]{Retain: tc.retain}
		fills := 0
		fill := func(context.Context) (int, error) {
			fills++
			return 0, boom
		}
		for i := 0; i < 2; i++ {
			if _, _, err := g.Do(context.Background(), "k", fill); !errors.Is(err, boom) {
				t.Fatalf("retain=%v: call %d: err = %v, want boom", tc.retain, i, err)
			}
		}
		if fills != tc.fills {
			t.Errorf("retain=%v: %d fills, want %d", tc.retain, fills, tc.fills)
		}
	}
}

// TestWaiterDeadline: a waiter whose own deadline passes gets
// DeadlineExceeded and leaves the fill it waited on alone.
func TestWaiterDeadline(t *testing.T) {
	g := memo.Group[int]{Retain: true}
	started, release := make(chan struct{}), make(chan struct{})
	fills := 0
	fill := func(context.Context) (int, error) {
		fills++
		close(started)
		<-release
		return 7, nil
	}
	aval := make(chan int, 1)
	go func() {
		v, _, err := g.Do(context.Background(), "k", fill)
		if err != nil {
			t.Error(err)
		}
		aval <- v
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := g.Do(ctx, "k", fill); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if v := <-aval; v != 7 {
		t.Fatalf("filler got %d, want 7", v)
	}
	v, ev, err := g.Do(context.Background(), "k", fill)
	if err != nil || v != 7 || ev != memo.Shared || fills != 1 {
		t.Fatalf("later caller got %d, %v, %v after %d fills; want the one fill's 7", v, ev, err, fills)
	}
}

func intTier(st *cas.Store) *memo.Tier[int] {
	return &memo.Tier[int]{
		Store:  st,
		Kind:   "int",
		Encode: func(v int) []byte { return []byte(strconv.Itoa(v)) },
		Decode: func(raw []byte) (int, bool) {
			v, err := strconv.Atoi(string(raw))
			return v, err == nil
		},
	}
}

func openStore(t *testing.T, dir, owner string, ttl time.Duration) *cas.Store {
	t.Helper()
	st, err := cas.Open(dir, cas.Options{Owner: owner, LeaseTTL: ttl, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTierFillsOnceAcrossStores: two Groups on two handles of one store
// directory — two processes of a farm — fill a key once between them.
// The second waits on the first's fill lease and decodes its entry.
func TestTierFillsOnceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	a := memo.Group[int]{Tier: intTier(openStore(t, dir, "a", 0))}
	b := memo.Group[int]{Tier: intTier(openStore(t, dir, "b", 0))}
	key := cas.Key([]byte("k"))

	var fills atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	aev := make(chan memo.Event, 1)
	go func() {
		v, ev, err := a.Do(context.Background(), key, func(context.Context) (int, error) {
			fills.Add(1)
			close(started)
			<-release
			return 9, nil
		})
		if err != nil || v != 9 {
			t.Errorf("a: Do = %d, %v; want 9, nil", v, err)
		}
		aev <- ev
	}()
	<-started // a holds the fill lease

	bctx := newWaitingCtx(context.Background())
	bev := make(chan memo.Event, 1)
	go func() {
		v, ev, err := b.Do(bctx, key, func(context.Context) (int, error) {
			fills.Add(1)
			return 9, nil
		})
		if err != nil || v != 9 {
			t.Errorf("b: Do = %d, %v; want 9, nil", v, err)
		}
		bev <- ev
	}()
	<-bctx.waiting // b is polling a's lease
	close(release)

	ea, eb := <-aev, <-bev
	if fills.Load() != 1 || ea != memo.Miss|memo.Fill || eb != memo.Hit {
		t.Fatalf("fills = %d, events a = %b, b = %b; want 1 fill, a miss+fill, b hit", fills.Load(), ea, eb)
	}
}

// TestTierWaitBound: a wait on a live but stalled filler in another
// process ends at MaxWait and degrades to a local fill; a caller whose
// own deadline passes first gets DeadlineExceeded and fills nothing.
func TestTierWaitBound(t *testing.T) {
	dir := t.TempDir()
	key := cas.Key([]byte("k"))
	ghost := openStore(t, dir, "ghost", time.Minute)
	lease, err := ghost.Acquire("int", key)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	tier := intTier(openStore(t, dir, "a", 0))
	tier.MaxWait = 20 * time.Millisecond
	g := memo.Group[int]{Tier: tier}
	v, ev, err := g.Do(context.Background(), key, func(context.Context) (int, error) { return 5, nil })
	if err != nil || v != 5 || ev != memo.Degraded {
		t.Fatalf("Do = %d, %b, %v; want a degraded local fill of 5", v, ev, err)
	}

	tier.MaxWait = 0
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, ev, err = g.Do(ctx, key, func(context.Context) (int, error) {
		t.Error("a caller whose deadline passed filled the key")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || ev != 0 {
		t.Fatalf("Do = %b, %v; want context.DeadlineExceeded and no event", ev, err)
	}
}
