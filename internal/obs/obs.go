// Package obs is the observability layer of the pipeline: optimization
// remarks (one structured record per inline/clone/outline/dead-call
// decision, à la gcc's -fopt-info), phase spans (start/end with wall
// time and size/cost deltas for every pipeline stage), and a small
// counter registry unifying the transformation and simulation
// statistics. It depends only on the standard library.
//
// The central type is Recorder. A nil *Recorder is a valid recorder
// that records nothing: every method is a no-op and allocation-free on
// nil, so the optimizer's hot paths can emit unconditionally and pay
// nothing when observability is off.
//
// Remark streams are deterministic: a remark carries no wall-clock
// data, and emitters append in their (deterministic) decision order, so
// two identical compiles produce byte-identical remark streams under
// both sinks. Spans carry wall time and are therefore not
// byte-reproducible; only their structure is.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Remark is one optimization decision. Site identifies the call site
// (ir.Instr.Site) for inline/clone/dead-call remarks and the block
// index for outline remarks. Reason is a machine-readable code:
// "ok" for accepted decisions, one of the core.Reason strings
// (e.g. "illegal-varargs", "budget", "no-benefit") for rejections.
type Remark struct {
	Kind     string `json:"kind"`             // inline | clone | outline | dead-call
	Pass     int    `json:"pass,omitempty"`   // 1-based HLO pass; 0 outside the pass loop
	Caller   string `json:"caller"`           // enclosing routine (QName)
	Callee   string `json:"callee,omitempty"` // target routine; empty for indirect sites
	Site     int32  `json:"site"`             // call-site ID (block index for outline)
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason"`             // machine-readable reason code
	Benefit  int64  `json:"benefit,omitempty"`  // figure of merit at decision time
	Cost     int64  `json:"cost,omitempty"`     // projected compile-cost delta (model units)
	Headroom int64  `json:"headroom,omitempty"` // stage budget remaining at decision time
	Detail   string `json:"detail,omitempty"`   // e.g. the clone or outlined routine created
}

// Span is one pipeline phase (schema v2, the flight-recorder form).
// Size/cost fields are zero when the phase does not track them.
//
// Wall time (Start, Dur) places the span on the process timeline; Start
// is nanoseconds since a process-wide epoch, so spans merged from many
// recorders stay mutually ordered (the Chrome trace exporter relies on
// this). CPU is the span's thread-CPU delta: exact for a span that ran
// on one OS thread (the common case — pipeline phases are CPU-bound
// between preemption points), an approximation when the goroutine
// migrated mid-span. AllocBytes/Allocs are process-wide heap-allocation
// deltas between Begin and End: exact attribution in a serial run, an
// upper bound when other goroutines allocate concurrently.
//
// Open marks a span whose End never ran — an in-flight phase captured
// by Spans() or flushed at shutdown. An open span's Dur is zero and
// must not be read as "took 0 ns"; sinks render it explicitly
// ("open"/"truncated") instead of as a bogus duration.
type Span struct {
	Name       string        `json:"name"`
	Depth      int           `json:"depth"`              // nesting level at Begin time
	Start      int64         `json:"start_ns,omitempty"` // ns since the process epoch
	Dur        time.Duration `json:"dur_ns"`
	CPU        time.Duration `json:"cpu_ns,omitempty"`      // thread CPU time consumed
	AllocBytes int64         `json:"alloc_bytes,omitempty"` // heap bytes allocated (process-wide delta)
	Allocs     int64         `json:"allocs,omitempty"`      // heap objects allocated (process-wide delta)
	Open       bool          `json:"open,omitempty"`        // never ended (truncated / in flight)
	SizeBefore int           `json:"size_before,omitempty"` // IR instructions in scope
	SizeAfter  int           `json:"size_after,omitempty"`
	CostBefore int64         `json:"cost_before,omitempty"` // compile-cost model units
	CostAfter  int64         `json:"cost_after,omitempty"`
}

// Elapsed is the span's wall time: Dur for a closed span, the time
// accumulated so far for one still open.
func (sp *Span) Elapsed() time.Duration {
	if !sp.Open {
		return sp.Dur
	}
	return sinceEpoch() - time.Duration(sp.Start)
}

// Counter is one named counter value.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Recorder collects remarks, spans and counters. The zero value is
// ready to use; so is a nil pointer (which records nothing).
// A Recorder is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	remarks  []Remark
	spans    []Span
	counters map[string]int64
	depth    int
}

// New returns an empty, enabled recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// Remark appends one decision record. No-op on a nil recorder.
func (r *Recorder) Remark(rm Remark) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.remarks = append(r.remarks, rm)
	r.mu.Unlock()
}

// Remarks returns a copy of the remark stream in emission order.
func (r *Recorder) Remarks() []Remark {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Remark(nil), r.remarks...)
}

// Timer is an open span handle returned by Begin. The zero Timer (from
// a nil recorder) is valid and its End methods are no-ops.
type Timer struct {
	r      *Recorder
	idx    int
	start  time.Time
	cpu0   time.Duration
	bytes0 int64
	objs0  int64
}

// Begin opens a span with no size/cost tracking.
func (r *Recorder) Begin(name string) Timer { return r.BeginSized(name, 0, 0) }

// BeginSized opens a span recording the size and cost of the scope at
// entry. Spans appear in the stream in Begin order; nesting is captured
// by Depth. The span starts open; EndSized closes it, and a span whose
// timer is dropped without End stays marked Open in the stream.
func (r *Recorder) BeginSized(name string, sizeBefore int, costBefore int64) Timer {
	if r == nil {
		return Timer{}
	}
	bytes0, objs0 := readHeapAllocs()
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, Span{
		Name:       name,
		Depth:      r.depth,
		Start:      int64(sinceEpoch()),
		Open:       true,
		SizeBefore: sizeBefore,
		CostBefore: costBefore,
	})
	r.depth++
	r.mu.Unlock()
	return Timer{r: r, idx: idx, start: time.Now(), cpu0: cpuNow(), bytes0: bytes0, objs0: objs0}
}

// End closes the span.
func (t Timer) End() { t.EndSized(0, 0) }

// EndSized closes the span and records the exit size and cost plus the
// CPU and allocation deltas since Begin.
func (t Timer) EndSized(sizeAfter int, costAfter int64) {
	if t.r == nil {
		return
	}
	d := time.Since(t.start)
	cpu := cpuNow() - t.cpu0
	if cpu < 0 {
		cpu = 0 // the goroutine migrated to a younger OS thread mid-span
	}
	bytes1, objs1 := readHeapAllocs()
	t.r.mu.Lock()
	sp := &t.r.spans[t.idx]
	sp.Dur = d
	sp.CPU = cpu
	sp.AllocBytes = bytes1 - t.bytes0
	sp.Allocs = objs1 - t.objs0
	sp.Open = false
	sp.SizeAfter = sizeAfter
	sp.CostAfter = costAfter
	t.r.depth--
	t.r.mu.Unlock()
}

// Spans returns a copy of the completed and open spans in Begin order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Count adds delta to the named counter. No-op on a nil recorder.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counters returns all counters sorted by name.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Counter, 0, len(r.counters))
	for name, v := range r.counters {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merge appends everything child has recorded — remarks and spans in
// their emission order, counters by addition — onto r. The parallel
// harness gives each task its own recorder and merges them back in
// submission order, so a fan-out produces byte-identical remark streams
// regardless of worker count. Child span depths are rebased onto r's
// current nesting level. No-op when either recorder is nil.
func (r *Recorder) Merge(child *Recorder) {
	if r == nil || child == nil || r == child {
		return
	}
	child.mu.Lock()
	remarks := append([]Remark(nil), child.remarks...)
	spans := append([]Span(nil), child.spans...)
	var counters map[string]int64
	if len(child.counters) > 0 {
		counters = make(map[string]int64, len(child.counters))
		for k, v := range child.counters {
			counters[k] = v
		}
	}
	child.mu.Unlock()

	r.mu.Lock()
	r.remarks = append(r.remarks, remarks...)
	for i := range spans {
		spans[i].Depth += r.depth
	}
	r.spans = append(r.spans, spans...)
	if counters != nil {
		if r.counters == nil {
			r.counters = make(map[string]int64, len(counters))
		}
		for k, v := range counters {
			r.counters[k] += v
		}
	}
	r.mu.Unlock()
}

// Reset discards everything recorded so far, keeping the recorder
// enabled (used between experiments that share one recorder).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.remarks = nil
	r.spans = nil
	r.counters = nil
	r.depth = 0
	r.mu.Unlock()
}
