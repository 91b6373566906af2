package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/pa8000"
	"repro/internal/serve"
	"repro/internal/specsuite"
)

const (
	// daemonUniquePerSecond sizes the daemon-mix deck from --seconds:
	// distinct bodies per second of measured work.
	daemonUniquePerSecond = 90
	// repeatGap is how many deck positions a repeated body trails its
	// first occurrence by, at least.
	repeatGap = 8
	// runShare is the share of distinct bodies sent to /run.
	runShare = 0.3
)

// minBudget and maxBudget bound the HLO budgets daemon-mix bodies draw.
const minBudget, maxBudget = 10, 250

func daemonWorkers() int { return runtime.NumCPU() }

// daemon is an in-process hlod: serve.New over a cas store in a fresh
// directory, listening on a loopback port.
type daemon struct {
	dir    string
	hs     *http.Server
	url    string
	done   chan error
	client *http.Client
}

// startDaemon performs the daemon's start-up as hlod -cache-dir does:
// open the store, construct the server, pin one simulator machine per
// worker, listen, and wait for the first /healthz to answer 200.
func startDaemon(workdir string, workers int) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "store-")
	if err != nil {
		return nil, err
	}
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := serve.New(serve.Config{Workers: workers, Store: store})
	pa8000.Prewarm(pa8000.Config{}, min(workers, 4))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:  dir,
		hs:   &http.Server{Handler: s},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: workers},
		},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down, waits for it, and removes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// storeMB is the store directory's size on disk.
func (d *daemon) storeMB() float64 {
	var n int64
	filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// daemonReq is one request of the daemon-mix deck. Its body is encoded
// just before it is sent, so the deck itself holds no request bodies.
type daemonReq struct {
	endpoint string // "/compile" or "/run"
	bench    int    // index into the suite
	cross    bool
	profile  bool
	budget   int
	repeatOf int // deck index of the first occurrence, or -1
}

func (r *daemonReq) body(suite []*specsuite.Benchmark) []byte {
	b := suite[r.bench]
	budget := r.budget
	opts := serve.OptionsJSON{CrossModule: r.cross, Profile: r.profile, Budget: &budget}
	if r.profile {
		opts.TrainInputs = b.Train
	}
	req := serve.CompileRequest{Sources: b.Sources, Options: opts}
	var v any = req
	if r.endpoint == "/run" {
		v = serve.RunRequest{CompileRequest: req, Inputs: b.Train}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and integers always encode
	}
	return body
}

// daemonMix is the daemon-mix workload: nproc closed-loop clients
// against an in-process daemon with nproc workers and a fresh store.
type daemonMix struct {
	workdir string
	suite   []*specsuite.Benchmark
	reqs    []daemonReq
	refs    []*interp.Result // per benchmark, on its train inputs
	irSize  []float64        // per benchmark, before HLO
}

func (w *daemonMix) prepare(ctx context.Context, seed int64, seconds int) error {
	rng := rand.New(rand.NewSource(seed))
	w.suite = specsuite.All()
	nb := len(w.suite)
	perBench := max(1, (seconds*daemonUniquePerSecond+nb/2)/nb)

	// Distinct bodies: the same count per benchmark and, per benchmark,
	// the same /run share, with each endpoint's bodies cycling through
	// the four (scope, profile) settings; budgets are drawn so that no
	// body repeats. Benchmarks that share sources (the li, gcc and
	// compress pairs) share their bodies without a profile, so bodies
	// are kept distinct across benchmarks too.
	var uniq []daemonReq
	seen := map[[32]byte]bool{}
	for bi := range w.suite {
		runs := int(float64(perBench)*runShare + 0.5)
		for k := range perBench {
			r := daemonReq{endpoint: "/compile", bench: bi, repeatOf: -1}
			setting := k - runs
			if k < runs {
				r.endpoint, setting = "/run", k
			}
			r.cross, r.profile = setting%2 == 1, setting/2%2 == 1
			for tries := 0; ; tries++ {
				if tries == 1000 {
					return fmt.Errorf("deck of %d bodies per program exhausts the option space", perBench)
				}
				r.budget = minBudget + rng.Intn(maxBudget-minBudget+1)
				key := sha256.Sum256(append([]byte(r.endpoint), r.body(w.suite)...))
				if !seen[key] {
					seen[key] = true
					break
				}
			}
			uniq = append(uniq, r)
		}
	}
	rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })

	// A third of the deck repeats an earlier body, at least repeatGap
	// positions later; the rest is the distinct bodies in order.
	n := len(uniq) + len(uniq)/2
	isRepeat := make([]bool, n)
	for _, p := range rng.Perm(n - repeatGap)[:len(uniq)/2] {
		isRepeat[p+repeatGap] = true
	}
	w.reqs = make([]daemonReq, 0, n)
	var firsts []int
	for pos := range n {
		if isRepeat[pos] {
			// Candidates are the first occurrences at least repeatGap back.
			limit, _ := slices.BinarySearch(firsts, pos-repeatGap+1)
			orig := firsts[rng.Intn(limit)]
			r := w.reqs[orig]
			r.repeatOf = orig
			w.reqs = append(w.reqs, r)
			continue
		}
		firsts = append(firsts, pos)
		w.reqs = append(w.reqs, uniq[0])
		uniq = uniq[1:]
	}

	// Reference outputs: every /run body runs its benchmark on its
	// train inputs.
	w.refs = make([]*interp.Result, nb)
	w.irSize = make([]float64, nb)
	errs := make([]error, nb)
	parallel(nb, func(i int) {
		b := w.suite[i]
		p, err := driver.Frontend(b.Sources)
		if err != nil {
			errs[i] = err
			return
		}
		w.irSize[i] = float64(p.TotalSize())
		w.refs[i], errs[i] = interp.RunCtx(ctx, p, interp.Options{Inputs: b.Train})
	})
	return errors.Join(errs...)
}

func (w *daemonMix) describe() {
	n := len(w.reqs)
	var repeats, runs, repeatRuns int
	var sizes []float64
	for _, r := range w.reqs {
		if r.endpoint == "/run" {
			runs++
		}
		if r.repeatOf >= 0 {
			repeats++
			if r.endpoint == "/run" {
				repeatRuns++
			}
		}
	}
	for _, b := range w.suite {
		sizes = append(sizes, float64(len(b.Sources)))
	}
	fmt.Printf("deck: %d requests, %d distinct bodies; repeat share %.3f; /run share %.3f (of repeats %.3f)\n",
		n, n-repeats, float64(repeats)/float64(n), float64(runs)/float64(n), ratio(float64(repeatRuns), float64(repeats)))
	fmt.Printf("daemon: %d workers, %d closed-loop clients, fresh cas store; budgets %d..%d\n",
		daemonWorkers(), daemonWorkers(), minBudget, maxBudget)
	fmt.Printf("programs: %d specsuite; IR size %g..%g (median %g); modules %g..%g\n",
		len(w.suite), slices.Min(w.irSize), slices.Max(w.irSize), median(w.irSize),
		slices.Min(sizes), slices.Max(sizes))
}

// daemonOut is one request's outcome as the client saw it.
type daemonOut struct {
	start, lat time.Duration // since the deck began; round trip
	status     int
	body       []byte
	hit        bool // X-Hlod-Cache: hit
	timed      bool // carried the queue/service split
	queue      float64
	service    float64 // ms, from X-Hlod-Queue-Ms / X-Hlod-Service-Ms
	err        error
}

type daemonRun struct {
	outs    []daemonOut
	wall    time.Duration
	heapMB  float64
	storeMB float64
}

// runDeck starts a fresh daemon, drives the deck through it with
// nproc closed-loop clients, and stops it. A client that draws a
// repeated body first waits for the original's reply, as a build
// client asking for an artifact it already requested would, so every
// repeat is answered by the store.
func (w *daemonMix) runDeck(ctx context.Context, tr *tracer) (*daemonRun, error) {
	d, err := startDaemon(w.workdir, daemonWorkers())
	if err != nil {
		return nil, err
	}
	n := len(w.reqs)
	run := &daemonRun{outs: make([]daemonOut, n)}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	runtime.GC()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range daemonWorkers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &w.reqs[i]
				if r.repeatOf >= 0 {
					<-done[r.repeatOf]
				}
				run.outs[i] = d.do(ctx, r, r.body(w.suite), start)
				if tr != nil {
					traceRequest(tr, i, &run.outs[i])
				}
				close(done[i])
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.heapMB = liveHeapMB()
	run.storeMB = d.storeMB()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon stop: %w", err)
	}
	return run, nil
}

func (d *daemon) do(ctx context.Context, r *daemonReq, body []byte, deckStart time.Time) daemonOut {
	out := daemonOut{start: time.Since(deckStart)}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+r.endpoint, bytes.NewReader(body))
	if err != nil {
		return daemonOut{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	out.lat = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.hit = resp.Header.Get("X-Hlod-Cache") == "hit"
	q, qerr := strconv.ParseFloat(resp.Header.Get("X-Hlod-Queue-Ms"), 64)
	s, serr := strconv.ParseFloat(resp.Header.Get("X-Hlod-Service-Ms"), 64)
	if qerr == nil && serr == nil {
		out.timed, out.queue, out.service = true, q, s
	}
	return out
}

// traceRequest records a request's round trip as a span, split into
// the daemon's queue wait and service time as its headers report them.
// The split's positions inside the round trip are nominal (queue first,
// then service); its durations are the daemon's own.
func traceRequest(tr *tracer, i int, o *daemonOut) {
	start, dur := o.start.Nanoseconds(), o.lat.Nanoseconds()
	root := tr.add(i, 0, "serve/round-trip", start, dur)
	if o.timed {
		q, s := int64(o.queue*1e6), int64(o.service*1e6)
		tr.add(i, root, "serve/queue", start, q)
		tr.add(i, root, "serve/service", start+q, s)
	} else if o.hit {
		tr.add(i, root, "cas/hit", start, dur)
	}
}

// decoded is the part of a response body the oracle and metrics read.
type decoded struct {
	serve.CompileResponse
	Sim *pa8000.Stats `json:"sim"`
}

// check verifies one response: a 200, a /run output equal to the
// interpreter's, and a repeat byte-identical to its first response.
func (w *daemonMix) check(run *daemonRun, i int) (*decoded, error) {
	o, r := &run.outs[i], &w.reqs[i]
	if o.err != nil {
		return nil, o.err
	}
	if o.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var dec decoded
	if err := json.Unmarshal(o.body, &dec); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if dec.CodeSize <= 0 {
		return nil, fmt.Errorf("response without code size")
	}
	if r.endpoint == "/run" {
		ref := w.refs[r.bench]
		if dec.Sim == nil || dec.Sim.ExitCode != ref.ExitCode || !slices.Equal(dec.Sim.Output, ref.Output) {
			return nil, fmt.Errorf("output mismatch against the interpreter")
		}
	}
	if r.repeatOf >= 0 && sha256.Sum256(o.body) != sha256.Sum256(run.outs[r.repeatOf].body) {
		return nil, fmt.Errorf("repeat of request %d answered with different bytes", r.repeatOf)
	}
	return &dec, nil
}

// checkAll checks every response and returns the decoded bodies.
func (w *daemonMix) checkAll(run *daemonRun) ([]*decoded, int) {
	decs := make([]*decoded, len(w.reqs))
	failed := 0
	for i := range w.reqs {
		dec, err := w.check(run, i)
		if err != nil {
			failed++
			fmt.Printf("FAIL request %d (%s %s): %v\n", i, w.reqs[i].endpoint, w.suite[w.reqs[i].bench].Name, err)
			continue
		}
		decs[i] = dec
	}
	return decs, failed
}

func (w *daemonMix) measure(ctx context.Context, rep *report) (int, int, error) {
	run, err := w.runDeck(ctx, nil)
	if err != nil {
		return 0, 0, err
	}
	decs, failed := w.checkAll(run)
	n := len(w.reqs)
	lat := make([]float64, n)
	var cycles, sizes []float64
	for i, o := range run.outs {
		lat[i] = ms(o.lat)
		// Code metrics count each distinct body once; a repeat's
		// response is a byte copy of its first.
		if dec := decs[i]; dec != nil && w.reqs[i].repeatOf < 0 {
			sizes = append(sizes, float64(dec.CodeSize))
			if dec.Sim != nil {
				cycles = append(cycles, float64(dec.Sim.Cycles))
			}
		}
	}
	rep.add("ops_per_s", float64(n)/run.wall.Seconds(), "1/s",
		fmt.Sprintf("%d requests in %.3f s", n, run.wall.Seconds()))
	addLatencies(rep, "latency_ms", lat)
	rep.add("heap_live_mb", run.heapMB, "MB", "after a GC at the end of the deck, daemon still up")
	rep.add("cycles_geomean", geomean(cycles), "cycles", fmt.Sprintf("over %d distinct /run bodies", len(cycles)))
	rep.add("code_size_geomean", geomean(sizes), "instrs", fmt.Sprintf("over %d distinct bodies", len(sizes)))
	return n, failed, nil
}

func (w *daemonMix) measureTraced(ctx context.Context, rep *report, spansPath string) (int, int, error) {
	plain, err := w.runDeck(ctx, nil)
	if err != nil {
		return 0, 0, err
	}
	tr := newTracer()
	traced, err := w.runDeck(ctx, tr)
	if err != nil {
		return 0, 0, err
	}
	if err := tr.write(spansPath); err != nil {
		return 0, 0, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)
	decs, failed := w.checkAll(traced)
	_, plainFailed := w.checkAll(plain)
	failed += plainFailed
	for i := range w.reqs {
		if decs[i] != nil && !bytes.Equal(plain.outs[i].body, traced.outs[i].body) {
			failed++
			fmt.Printf("FAIL request %d: traced response differs from the untraced one\n", i)
		}
	}

	var queue, service, overhead, hitMS []float64
	var rejected, hits, fronts, trains int
	var wc workCounts
	frontKeys, trainKeys := map[int]bool{}, map[string]bool{}
	for i, o := range traced.outs {
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if o.hit {
			hits++
			hitMS = append(hitMS, ms(o.lat))
		}
		if o.timed {
			queue = append(queue, o.queue)
			service = append(service, o.service)
			overhead = append(overhead, ms(o.lat)-o.queue-o.service)
		}
		dec := decs[i]
		if dec == nil || o.hit {
			continue
		}
		// Work the daemon executed (a store hit replays bytes).
		r := &w.reqs[i]
		wc.add(&dec.Stats, dec.CodeSize, dec.Sim)
		// The driver cache fills once per source set and once per
		// (sources, train inputs); every other lookup is a hit.
		fronts++
		frontKeys[sourceIndex(w.suite, r.bench)] = true
		if r.profile {
			trains++
			trainKeys[fmt.Sprint(sourceIndex(w.suite, r.bench), w.suite[r.bench].Train)] = true
		}
	}
	na := "n/a: inside the daemon; needs in-program tracing"
	for _, m := range []string{"pa8000.ms", "pa8000.repeat_ms", "core.ms", "driver.frontend_ms",
		"driver.train_ms", "driver.self_ms", "backend.ms"} {
		rep.add(m, 0, "ms", na)
	}
	rep.add("pa8000.minstr_per_s", 0, "Minstr/s", na)
	rep.add("pa8000.distinct_ratio", 0, "ratio", na)
	rep.add("core.ns_per_cost", 0, "ns/cost", na)
	rep.add("interp.steps", 0, "count", na)
	rep.add("interp.msteps_per_s", 0, "Msteps/s", na)
	wc.report(rep, "executed requests")
	rep.add("driver.frontend_hit_ratio", ratio(float64(fronts-len(frontKeys)), float64(fronts)), "ratio",
		fmt.Sprintf("%d source sets over %d executed requests", len(frontKeys), fronts))
	rep.add("driver.train_hit_ratio", ratio(float64(trains-len(trainKeys)), float64(trains)), "ratio",
		fmt.Sprintf("%d training keys over %d executed profile requests", len(trainKeys), trains))
	addLatencies(rep, "serve.queue_ms", queue)
	addLatencies(rep, "serve.service_ms", service)
	rep.add("serve.overhead_ms_p50", median(overhead), "ms",
		fmt.Sprintf("round trip - queue - service, p50 of %d", len(overhead)))
	rep.add("serve.rejected", float64(rejected), "count", "429 answers")
	rep.add("cas.hit_ratio", ratio(float64(hits), float64(len(w.reqs))), "ratio",
		fmt.Sprintf("%d of %d requests answered by the store", hits, len(w.reqs)))
	rep.add("cas.hit_ms_p50", median(hitMS), "ms", fmt.Sprintf("round trip, p50 of %d hits", len(hitMS)))
	rep.add("cas.store_mb", traced.storeMB, "MB", "store directory at the end of the deck")
	rep.add("trace.overhead_ratio", ratio(traced.wall.Seconds(), plain.wall.Seconds()), "ratio",
		fmt.Sprintf("traced %.3f s / untraced %.3f s", traced.wall.Seconds(), plain.wall.Seconds()))
	return len(w.reqs), failed, nil
}

// sourceIndex maps a benchmark to the first benchmark with identical
// sources (the li, gcc and compress pairs share theirs).
func sourceIndex(suite []*specsuite.Benchmark, bi int) int {
	for i, b := range suite {
		if slices.Equal(b.Sources, suite[bi].Sources) {
			return i
		}
	}
	return bi
}
