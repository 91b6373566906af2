package obs

import (
	"testing"
)

// BenchmarkSpanNil measures the disabled path: what every instrumented
// call site pays when no recorder is attached (zero allocations is
// separately pinned by TestNilRecorderAllocFree).
func BenchmarkSpanNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("phase")
		sp.End()
	}
}

// BenchmarkSpanEnabled measures the enabled path: one Begin/End pair
// including the heap-allocation samples. The per-span cost
// bounds recording overhead: a Table 1 run emits a few thousand spans
// over tens of seconds, so microseconds per span keeps the total well
// under the 3% budget (the end-to-end number lives in PROFILE.md).
func BenchmarkSpanEnabled(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Begin("phase")
		sp.End()
		if len(r.spans) >= 1<<16 {
			b.StopTimer()
			r.Reset()
			b.StartTimer()
		}
	}
}

// BenchmarkCountEnabled measures the counter hot path (map lookup under
// the recorder lock).
func BenchmarkCountEnabled(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Count("hlo.inlines", 1)
	}
}
