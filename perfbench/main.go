// Command perfbench is the repository's benchmark. It drives the
// compiler from outside, through the public surfaces of driver, core,
// backend, pa8000, interp, specsuite, randprog, serve and cas, on one
// named workload:
//
//	perfbench --workload paper-eval|large-programs|daemon-mix
//	          [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]
//
// Each workload's deck is generated from --seed; the program under test
// only ever sees the generated inputs. Every op's output is checked
// against the IR interpreter run on the unoptimized program (the
// reference is computed before any timed region), and in daemon-mix
// every repeated request must get a byte-identical response. A
// mismatch counts as a failed op and fails the run.
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it runs the deck untraced, then again
// with a span around every call into a layer, checks that both runs
// agree exactly, and prints the per-layer metrics. Metrics are printed
// one per line with their unit (latencies with their sample count);
// the last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// run.sh in this directory builds the binary from the checkout it sits
// in and runs it; see README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// defaultSeed is the deck seed used when --seed is not given.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the printed metrics of one run in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric; note, when non-empty, is printed beside it
// (sample counts, the percentile a tail stands for).
func (r *report) add(name string, value float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.notes[name] = note
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-28s %16.6g %-9s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

// workload is one named deck.
type workload interface {
	// prepare builds the deck from the seed, sized for about seconds of
	// measured work, and computes every reference output. Untimed.
	prepare(ctx context.Context, seed int64, seconds int) error
	// describe prints the deck's traffic properties.
	describe()
	// measure runs the deck with tracing off and reports the
	// end-to-end metrics other than setup_s.
	measure(ctx context.Context, rep *report) (attempted, failed int, err error)
	// measureTraced runs the deck untraced and then traced, checks the
	// two agree, writes the spans, and reports the per-layer metrics.
	measureTraced(ctx context.Context, rep *report, spansPath string) (attempted, failed int, err error)
}

// newWorkload returns the named workload, or nil.
func newWorkload(name, workdir string) workload {
	switch name {
	case "paper-eval":
		return &batch{kind: paperEval}
	case "large-programs":
		return &batch{kind: largePrograms}
	case "daemon-mix":
		return &daemonMix{workdir: workdir}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: paper-eval, large-programs or daemon-mix")
	seed := flag.Int64("seed", defaultSeed, "deck seed")
	seconds := flag.Int("seconds", 25, "measured work to size the deck for, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for stores, spans and probe scratch")
	probe := flag.String("setup-probe", "", "internal: perform one workload's start-up and wait on stdin")
	flag.Parse()

	if *probe != "" {
		if err := setupProbe(*probe, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		return
	}
	w := newWorkload(*name, *workdir)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-eval|large-programs|daemon-mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	ctx := context.Background()
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("host nproc=%d cpu=%q go=%s\n", runtime.NumCPU(), cpuModel(), runtime.Version())

	rep := newReport()
	var setup []float64
	if !traced {
		// Cold starts run while nothing else of ours is running: half
		// now, half once the deck is done.
		var err error
		if setup, err = coldStarts(name, workdir, setupProbes/2); err != nil {
			return nil, err
		}
	}
	if err := w.prepare(ctx, seed, seconds); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	w.describe()

	var attempted, failed int
	var err error
	if traced {
		spans := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", workdir, name, seed)
		attempted, failed, err = w.measureTraced(ctx, rep, spans)
	} else {
		attempted, failed, err = w.measure(ctx, rep)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		more, err := coldStarts(name, workdir, setupProbes-len(setup))
		if err != nil {
			return nil, err
		}
		setup = append(setup, more...)
		rep.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d cold starts", len(setup)))
	}
	fmt.Println("metrics:")
	rep.print()
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	}, nil
}

// cpuModel reads the host's CPU model name for the run's fingerprint.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// parallel runs f(0..n-1) over the host's CPUs and waits.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.NumCPU()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
