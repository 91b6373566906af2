package experiments_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// detRun is one cold-cache regeneration of an experiment: the rendered
// rows, the remark stream serialized as JSONL — the two byte streams
// hlobench and hlocc -remarks-json expose — the span attribution
// skeleton: every recorded span's name, depth and size/cost deltas with
// the timing fields dropped, and the aggregated attribution of the
// recorded spans. The skeleton is sorted: which cell's recorder
// captures a shared cache fill (frontend/parse, train/run for
// benchmarks with identical sources) is schedule-dependent by design,
// but exactly one fill happens per key, so the multiset of spans — and
// with it the aggregated attribution — is not.
type detRun struct {
	out   string
	jsonl []byte
	spans []byte
	attr  *obs.Attribution
}

// runDeterministic regenerates an experiment from a cold cache at the
// given parallelism with a fresh recorder attached.
func runDeterministic(workers int, gen func() (string, error)) (detRun, error) {
	experiments.ResetCache()
	rec := obs.New()
	experiments.SetRecorder(rec)
	experiments.SetParallelism(workers)
	defer experiments.SetRecorder(nil)
	defer experiments.SetParallelism(0)
	rendered, err := gen()
	if err != nil {
		return detRun{}, err
	}
	var jsonl bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, rec.Remarks()); err != nil {
		return detRun{}, err
	}
	lines := make([]string, 0, len(rec.Spans()))
	for _, sp := range rec.Spans() {
		lines = append(lines, fmt.Sprintf("%d %s %d %d %d %d %v",
			sp.Depth, sp.Name, sp.SizeBefore, sp.SizeAfter, sp.CostBefore, sp.CostAfter, sp.Open))
	}
	sort.Strings(lines)
	return detRun{rendered, jsonl.Bytes(), []byte(strings.Join(lines, "\n")), obs.Aggregate(rec.Spans())}, nil
}

// serialAndParallel regenerates an experiment at -j 1 (the serial
// reference) and at -j 8.
func serialAndParallel(gen func() (string, error)) ([2]detRun, error) {
	serial, err := runDeterministic(1, gen)
	if err != nil {
		return [2]detRun{}, err
	}
	parallel, err := runDeterministic(8, gen)
	return [2]detRun{serial, parallel}, err
}

// table1Runs regenerates Table 1 at -j 1 and -j 8 once per test binary:
// TestParallelDeterminism/table1 and TestAttributionDeterminism check
// the same two runs, so the slow regeneration is paid once.
var table1Runs = sync.OnceValues(func() ([2]detRun, error) {
	return serialAndParallel(func() (string, error) {
		rows, err := experiments.Table1()
		if err != nil {
			return "", err
		}
		return experiments.RenderTable1(rows) + experiments.RenderTable1Totals(rows), nil
	})
})

// TestParallelDeterminism is the harness's headline guarantee: the
// rendered Table 1 and Figure 6 outputs AND the full remark streams are
// byte-identical between -j 1 (the serial reference) and -j 8.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full table/figure regeneration is slow")
	}
	cases := []struct {
		name string
		runs func() ([2]detRun, error)
	}{
		{"table1", table1Runs},
		{"figure6", func() ([2]detRun, error) {
			return serialAndParallel(func() (string, error) {
				rows, err := experiments.Figure6()
				if err != nil {
					return "", err
				}
				return experiments.RenderFigure6(rows), nil
			})
		}},
	}
	for _, exp := range cases {
		t.Run(exp.name, func(t *testing.T) {
			runs, err := exp.runs()
			if err != nil {
				t.Fatal(err)
			}
			serial, parallel := runs[0], runs[1]
			if serial.out != parallel.out {
				t.Errorf("rendered output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial.out, parallel.out)
			}
			if len(serial.jsonl) == 0 {
				t.Fatal("serial run recorded no remarks — determinism check is vacuous")
			}
			if !bytes.Equal(serial.jsonl, parallel.jsonl) {
				t.Errorf("JSONL remark stream differs between -j 1 and -j 8 (%d vs %d bytes)",
					len(serial.jsonl), len(parallel.jsonl))
			}
			if len(serial.spans) == 0 {
				t.Fatal("serial run recorded no spans — attribution check is vacuous")
			}
			if !bytes.Equal(serial.spans, parallel.spans) {
				t.Errorf("span attribution skeleton differs between -j 1 and -j 8 (%d vs %d bytes)",
					len(serial.spans), len(parallel.spans))
			}
		})
	}
}

// TestAttributionDeterminism extends the harness's determinism
// guarantee to the flight recorder: -j 1 and -j 8 must produce the same
// aggregated attribution table modulo wall-clock fields — the same
// phases, the same number of times (one frontend parse per benchmark,
// one span per cell, one hlo span per module, ...), and full coverage
// either way.
func TestAttributionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 regeneration is slow")
	}
	runs, err := table1Runs()
	if err != nil {
		t.Fatal(err)
	}
	serial, parallel := runs[0].attr, runs[1].attr
	if len(serial.Phases) == 0 {
		t.Fatal("serial run recorded no phases — determinism check is vacuous")
	}
	if got, want := serial.Stable(), parallel.Stable(); !reflect.DeepEqual(got, want) {
		t.Errorf("attribution tables differ between -j 1 and -j 8:\nj1: %+v\nj8: %+v", got, want)
	}
	for _, a := range []*obs.Attribution{serial, parallel} {
		if cov := a.Coverage(); cov < 0.90 {
			t.Errorf("attribution coverage = %.1f%%, want >= 90%%", 100*cov)
		}
	}
}
