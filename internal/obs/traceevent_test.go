package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWriteTraceEventsGolden pins the exact Chrome trace-event output:
// byte-for-byte stability is what lets CI diff the artifact and what
// keeps the exporter loadable in chrome://tracing and Perfetto. The
// fixture exercises lane packing (cell/b reuses lane 0 because cell/a
// ended; the open span overlaps and is pushed to lane 1), child lane
// inheritance, per-span args, and ph "B" truncation marking.
func TestWriteTraceEventsGolden(t *testing.T) {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []obs.Span{
		{Name: "cell/a", Depth: 0, Start: 0, Dur: ms(100)},
		{Name: "frontend", Depth: 1, Start: int64(ms(5)), Dur: ms(20), SizeBefore: 10, SizeAfter: 20},
		{Name: "cell/b", Depth: 0, Start: int64(ms(100)), Dur: ms(50), Allocs: 45},
		{Name: "inflight", Depth: 0, Start: int64(ms(120)), Open: true},
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, spans); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[
{"name":"cell/a","ph":"X","pid":1,"tid":0,"ts":0,"dur":100000},
{"name":"frontend","ph":"X","pid":1,"tid":0,"ts":5000,"dur":20000,"args":{"size":"10 -> 20"}},
{"name":"cell/b","ph":"X","pid":1,"tid":0,"ts":100000,"dur":50000,"args":{"allocs":45}},
{"name":"inflight","ph":"B","pid":1,"tid":1,"ts":120000,"args":{"truncated":true}}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("trace-event output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// And the artifact must be one valid JSON document.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 4 {
		t.Errorf("decoded doc = %+v", doc)
	}
}
