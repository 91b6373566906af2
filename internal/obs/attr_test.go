package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// sampleSpans is a two-cell flight record: cell A with frontend+hlo
// children (hlo has a nested inline child), cell B with frontend only.
// Starts and durations are fixed so aggregation is exactly checkable.
func sampleSpans() []obs.Span {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	return []obs.Span{
		{Name: "cell/a", Depth: 0, Start: 0, Dur: ms(100), AllocBytes: 1000, Allocs: 10},
		{Name: "frontend", Depth: 1, Start: int64(ms(5)), Dur: ms(20), AllocBytes: 400, Allocs: 4},
		{Name: "hlo", Depth: 1, Start: int64(ms(25)), Dur: ms(70), AllocBytes: 500, Allocs: 5},
		{Name: "hlo/inline", Depth: 2, Start: int64(ms(30)), Dur: ms(40), AllocBytes: 300, Allocs: 3},
		{Name: "cell/b", Depth: 0, Start: int64(ms(100)), Dur: ms(50)},
		{Name: "frontend", Depth: 1, Start: int64(ms(100)), Dur: ms(45)},
	}
}

func TestAggregate(t *testing.T) {
	a := obs.Aggregate(sampleSpans())
	if a.Total != 150*time.Millisecond {
		t.Errorf("Total = %v, want 150ms", a.Total)
	}
	// cell/a self = 100 - (20+70) = 10ms; cell/b self = 50 - 45 = 5ms.
	if a.RootSelf != 15*time.Millisecond {
		t.Errorf("RootSelf = %v, want 15ms", a.RootSelf)
	}
	if got, want := a.Coverage(), 0.9; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Coverage = %v, want 0.9", got)
	}
	byName := map[string]obs.PhaseStat{}
	for _, st := range a.Phases {
		byName[st.Name] = st
	}
	fe := byName["frontend"]
	if fe.Count != 2 || fe.Wall != 65*time.Millisecond || fe.Self != 65*time.Millisecond {
		t.Errorf("frontend stat = %+v", fe)
	}
	hlo := byName["hlo"]
	if hlo.Count != 1 || hlo.Wall != 70*time.Millisecond || hlo.Self != 30*time.Millisecond {
		t.Errorf("hlo stat = %+v (want wall 70ms, self 30ms)", hlo)
	}
	if byName["cell/a"].AllocBytes != 1000 || byName["hlo/inline"].Allocs != 3 {
		t.Error("alloc columns not carried into the aggregate")
	}
	// Sorted by self descending: frontend (65) first.
	if a.Phases[0].Name != "frontend" {
		t.Errorf("phases[0] = %s, want frontend", a.Phases[0].Name)
	}
}

// A record whose roots are the phases themselves (a bare hlocc compile:
// frontend, hlo, simulate at depth 0) must not charge childless roots
// as unattributed — only wrapper roots' own gap counts against
// coverage.
func TestAggregateChildlessRoots(t *testing.T) {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	a := obs.Aggregate([]obs.Span{
		{Name: "frontend", Depth: 0, Start: 0, Dur: ms(10)},
		{Name: "hlo", Depth: 0, Start: int64(ms(10)), Dur: ms(40)},
		{Name: "hlo/inline", Depth: 1, Start: int64(ms(15)), Dur: ms(30)},
		{Name: "simulate", Depth: 0, Start: int64(ms(50)), Dur: ms(50)},
	})
	if a.Total != 100*time.Millisecond {
		t.Errorf("Total = %v, want 100ms", a.Total)
	}
	// Only hlo is a wrapper; its gap is 40 - 30 = 10ms. The childless
	// frontend and simulate roots are fully attributed.
	if a.RootSelf != 10*time.Millisecond {
		t.Errorf("RootSelf = %v, want 10ms", a.RootSelf)
	}
	if got, want := a.Coverage(), 0.9; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Coverage = %v, want 0.9", got)
	}
}

func TestAggregateSkipsOpenSpans(t *testing.T) {
	spans := []obs.Span{
		{Name: "closed", Depth: 0, Dur: 10 * time.Millisecond},
		{Name: "stuck", Depth: 0, Open: true},
	}
	a := obs.Aggregate(spans)
	if a.Total != 10*time.Millisecond {
		t.Errorf("Total = %v, open span must not contribute", a.Total)
	}
	for _, st := range a.Phases {
		if st.Name == "stuck" {
			t.Error("open span aggregated")
		}
	}
}

// TestCoverageEmptyStream: a stream with no closed span attributes
// nothing, so hloprof's -min-coverage gate fails on it instead of
// reading 100%.
func TestCoverageEmptyStream(t *testing.T) {
	for _, spans := range [][]obs.Span{nil, {{Name: "stuck", Depth: 0, Open: true}}} {
		if got := obs.Aggregate(spans).Coverage(); got != 0 {
			t.Errorf("Coverage of %d spans with none closed = %v, want 0", len(spans), got)
		}
	}
}

func TestStable(t *testing.T) {
	got := obs.Aggregate(sampleSpans()).Stable()
	want := []obs.PhaseCount{
		{Name: "cell/a", Count: 1},
		{Name: "cell/b", Count: 1},
		{Name: "frontend", Count: 2},
		{Name: "hlo", Count: 1},
		{Name: "hlo/inline", Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Stable() = %+v, want %+v", got, want)
	}
}

func TestTopSpans(t *testing.T) {
	top := obs.TopSpans(sampleSpans(), "cell/", 1)
	if len(top) != 1 || top[0].Name != "cell/a" {
		t.Errorf("TopSpans = %+v, want [cell/a]", top)
	}
	all := obs.TopSpans(sampleSpans(), "cell/", 0)
	if len(all) != 2 || all[0].Name != "cell/a" || all[1].Name != "cell/b" {
		t.Errorf("TopSpans unlimited = %+v", all)
	}
}

func TestWriteAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteAttribution(&buf, obs.Aggregate(sampleSpans())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"frontend", "hlo/inline", "coverage 90.0%", "(unattributed in roots)"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution output missing %q:\n%s", want, out)
		}
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	spans := sampleSpans()
	spans = append(spans, obs.Span{Name: "inflight", Depth: 0, Start: 99, Open: true})
	var buf bytes.Buffer
	if err := obs.WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"open":true`) {
		t.Error("open span not marked in the JSONL sink")
	}
	got, err := obs.DecodeSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, spans)
	}
}

// TestRecorderMeasuresResources pins the live-measurement plumbing: a
// span that runs and allocates must record a positive duration and
// allocation deltas and a start offset, and must come back closed.
func TestRecorderMeasuresResources(t *testing.T) {
	r := obs.New()
	tm := r.Begin("work")
	sink := 0
	var junk [][]byte
	for i := 0; i < 2000; i++ {
		junk = append(junk, make([]byte, 1024))
		for j := range junk[len(junk)-1] {
			sink += int(junk[len(junk)-1][j])
		}
	}
	_ = sink
	tm.End()
	sp := r.Spans()[0]
	if sp.Open {
		t.Error("ended span still marked open")
	}
	if sp.Dur <= 0 {
		t.Errorf("Dur = %v, want > 0", sp.Dur)
	}
	if sp.AllocBytes < 2000*1024 {
		t.Errorf("AllocBytes = %d, want >= %d", sp.AllocBytes, 2000*1024)
	}
	if sp.Allocs <= 0 {
		t.Errorf("Allocs = %d, want > 0", sp.Allocs)
	}
}

// TestOpenSpanMarked pins the satellite fix: a recorder snapshotted
// mid-phase reports the phase as open, and Elapsed keeps advancing.
func TestOpenSpanMarked(t *testing.T) {
	r := obs.New()
	tm := r.Begin("slow-phase")
	spans := r.Spans()
	if len(spans) != 1 || !spans[0].Open {
		t.Fatalf("mid-phase snapshot = %+v, want one open span", spans)
	}
	if spans[0].Dur != 0 {
		t.Errorf("open span Dur = %v, want 0 (duration unknown)", spans[0].Dur)
	}
	if spans[0].Elapsed() < 0 {
		t.Error("open span Elapsed went backwards")
	}
	tm.End()
	if sp := r.Spans()[0]; sp.Open || sp.Dur <= 0 {
		t.Errorf("span after End = %+v, want closed with positive Dur", sp)
	}
}
