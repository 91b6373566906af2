// Package resilience is the fault-isolation layer's shared vocabulary:
// a deterministic fault-injection registry and the FailPolicy option
// that decides what a guarded pass does when a mutation panics or fails
// verification.
//
// Fault points are process-global named sites (e.g. "core/inline",
// "isom/decode") compiled into the production paths. Disarmed, a point
// costs one atomic load, cheap enough to leave in release builds. Each
// guard's own package test arms its point and asserts the recovery, so
// every registered recovery path is exercised reproducibly.
//
// Naming scheme: "<package>/<site>", lower-case, one site per guarded
// boundary. Points inside mutations that a pass firewall snapshots are
// rolled back; points on input boundaries (decode, profile read, store
// I/O, request dispatch) have guards that turn the panic into a
// structured error or a 500 instead.
package resilience

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// InjectedFault is the panic value raised by an armed Point. Guards can
// treat it like any other panic; IsInjected tells it apart where the
// recovery differs for a planted fault.
type InjectedFault struct {
	Point string
}

func (f *InjectedFault) Error() string {
	return "resilience: injected fault at " + f.Point
}

// IsInjected reports whether a recovered panic value is an injected
// fault, and at which point.
func IsInjected(r any) (point string, ok bool) {
	if f, isf := r.(*InjectedFault); isf {
		return f.Point, true
	}
	return "", false
}

// Point is one registered fault-injection site. All methods are safe
// for concurrent use; the armed/skip state is atomic so the disarmed
// fast path costs one load.
type Point struct {
	name  string
	armed atomic.Bool
	skip  atomic.Int64 // remaining Inject hits to let pass before firing
	fired atomic.Int64 // faults actually raised since the last Arm
}

// Fired returns how many faults the point raised since it was last
// armed.
func (p *Point) Fired() int64 { return p.fired.Load() }

// Inject raises an InjectedFault panic if the point is armed and its
// skip count is exhausted. Arming is one-shot: the point disarms itself
// as it fires, so one Arm produces exactly one fault.
func (p *Point) Inject() {
	if !p.armed.Load() {
		return
	}
	if p.skip.Add(-1) >= 0 {
		return // still skipping earlier hits
	}
	if p.armed.CompareAndSwap(true, false) {
		p.fired.Add(1)
		panic(&InjectedFault{Point: p.name})
	}
}

// registry holds every registered point. Registration happens in
// package init functions (and tests); lookup is read-mostly.
var registry struct {
	mu     sync.Mutex
	points map[string]*Point
}

// Register creates (or returns the existing) fault point with the given
// name.
func Register(name string) *Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.points == nil {
		registry.points = make(map[string]*Point)
	}
	if p, ok := registry.points[name]; ok {
		return p
	}
	p := &Point{name: name}
	registry.points[name] = p
	return p
}

func lookup(name string) *Point {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.points[name]
}

// PointNames returns every registered point name, sorted.
func PointNames() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.points))
	for name := range registry.points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Arm arms the named point to fire on the (skip+1)-th Inject hit, once,
// and zeroes its Fired count. It returns the point, or an error for an
// unknown name.
func Arm(name string, skip int64) (*Point, error) {
	p := lookup(name)
	if p == nil {
		return nil, fmt.Errorf("resilience: unknown fault point %q", name)
	}
	if skip < 0 {
		skip = 0
	}
	p.fired.Store(0)
	p.skip.Store(skip)
	p.armed.Store(true)
	return p, nil
}

// Disarm clears the named point's arming (no-op when already disarmed
// or unknown).
func Disarm(name string) {
	if p := lookup(name); p != nil {
		p.armed.Store(false)
	}
}

// DisarmAll clears every point's arming.
func DisarmAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, p := range registry.points {
		p.armed.Store(false)
	}
}
