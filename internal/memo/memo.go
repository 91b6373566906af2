// Package memo is the system's one "compute once" primitive: a keyed
// single-flight memo with an optional store tier in a cas.Store. The
// driver's front end and training stage and hlod's rendered responses
// are each one Group.
//
// Group.Do runs a key's fill (the one computation of its value) at most
// once among concurrent callers: callers in one process wait on the
// Group, and with a Tier, callers in other processes sharing the store
// wait on its fill lease (cas.Store.WaitEntry), so a key is filled once
// farm-wide. A fill that ends in a context error is never kept or
// shared: the canceled caller gets its own error, and a waiting caller
// takes the fill over under its own context. A failing store, or a
// lease wait past the tier's bound, degrades to a local fill: the tier
// can make a fill cheaper, never make it fail.
package memo

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/cas"
)

// Event is the set of things that happened to one Do call. Callers
// count them under their own counter names.
type Event uint8

const (
	// Shared: the value came from another caller's fill in this
	// process, finished or in flight.
	Shared Event = 1 << iota
	// Hit: the fill decoded the value from the store.
	Hit
	// Miss: the store had no entry and this process took the fill
	// lease.
	Miss
	// Fill: the filled value was stored.
	Fill
	// FillFail: storing the filled value failed; the value is returned
	// regardless.
	FillFail
	// Degraded: the store failed, its entry did not decode, or the wait
	// outlasted Tier.MaxWait, so the value was filled without the store.
	Degraded
)

// Tier persists a Group's values in a cas.Store under (Kind, key) and
// single-flights their fills across every process sharing the store.
// The keys of a Group with a Tier are store keys: cas.Key digests.
type Tier[V any] struct {
	Store *cas.Store
	Kind  string
	// Encode renders a value for the store, or returns nil to keep it
	// out.
	Encode func(V) []byte
	// Decode parses a stored value; false means the entry is unusable
	// and the value is filled locally.
	Decode func([]byte) (V, bool)
	// MaxWait bounds a wait on another process's fill lease; past it the
	// caller fills locally. 0 leaves the caller's context as the only
	// bound.
	MaxWait time.Duration
}

// Group is a keyed single-flight memo. The zero value is ready to use;
// set Retain and Tier before the first Do.
type Group[V any] struct {
	// Retain keeps every finished value and permanent error for later
	// callers. Without it an entry lives only while its fill runs, and
	// the Tier (if any) is the only memory.
	Retain bool
	// Tier, when non-nil, is consulted by every fill before computing.
	Tier *Tier[V]

	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{} // closed once val and err are set
	val  V
	err  error
}

// Do returns key's value, running fill under the context of the caller
// that runs it. A caller that finds a fill in flight waits for it; if
// that fill ends in a context error, the caller retries as the filler.
// A caller whose own ctx ends while it waits gets ctx.Err(). fill must
// not panic.
func (g *Group[V]) Do(ctx context.Context, key string, fill func(context.Context) (V, error)) (V, Event, error) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		if !ok {
			if g.calls == nil {
				g.calls = make(map[string]*call[V])
			}
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
			g.mu.Unlock()
			var ev Event
			c.val, ev, c.err = g.fill(ctx, key, fill)
			if !g.Retain || isCtxErr(c.err) {
				g.mu.Lock()
				delete(g.calls, key)
				g.mu.Unlock()
			}
			close(c.done)
			return c.val, ev, c.err
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			if !isCtxErr(c.err) {
				return c.val, Shared, c.err
			}
		case <-ctx.Done():
			var zero V
			return zero, Shared, ctx.Err()
		}
	}
}

// fill computes key's value for Do, through the store tier if there is
// one: a stored entry is decoded instead of computed, and a computed
// value is stored while this process holds the key's fill lease.
func (g *Group[V]) fill(ctx context.Context, key string, fill func(context.Context) (V, error)) (V, Event, error) {
	t := g.Tier
	if t == nil {
		v, err := fill(ctx)
		return v, 0, err
	}
	wctx := ctx
	if t.MaxWait > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, t.MaxWait)
		defer cancel()
	}
	payload, lease, err := t.Store.WaitEntry(wctx, t.Kind, key)
	if err != nil && ctx.Err() != nil {
		var zero V
		return zero, 0, ctx.Err()
	}
	if err == nil && lease == nil {
		if v, ok := t.Decode(payload); ok {
			return v, Hit, nil
		}
	}
	if lease == nil {
		v, err := fill(ctx)
		return v, Degraded, err
	}
	defer lease.Release()
	v, err := fill(ctx)
	if err != nil {
		return v, Miss, err
	}
	raw := t.Encode(v)
	switch {
	case raw == nil:
		return v, Miss, nil
	case t.Store.Put(t.Kind, key, raw) != nil:
		return v, Miss | FillFail, nil
	}
	return v, Miss | Fill, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
