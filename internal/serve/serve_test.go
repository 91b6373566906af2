package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/specsuite"
)

// slowSource spins for input(0) iterations — roughly 7 machine
// instructions each, ~80M instructions/second on the PA8000 model — so
// tests can dial a request's duration via the input vector.
const slowSource = `
module slow;
extern func input(i int) int;

func spin(n int) int {
	var i int;
	var s int;
	i = 0;
	s = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}

func main() int {
	return spin(input(0));
}
`

const (
	// spinShort completes in a fraction of a second (a few seconds under
	// -race): the dedup test polls until the leader is mid-flight before
	// launching the follower, so this only needs to be slow enough for
	// that poll to land.
	spinShort = 2_000_000
	// spinLong would run ~15s+; tests that use it always cancel or time
	// the request out, never wait for completion.
	spinLong = 200_000_000
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func runBody(t *testing.T, iters int64, budget int) []byte {
	t.Helper()
	b := budget
	return mustMarshal(RunRequest{
		CompileRequest: CompileRequest{
			Sources: []string{slowSource},
			Options: OptionsJSON{Budget: &b},
		},
		Inputs: []int64{iters},
	})
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCompileMatchesDriver verifies the acceptance criterion that a
// /compile response is byte-identical to one assembled directly from
// driver.Compile with the same inputs.
func TestCompileMatchesDriver(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	bench, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	budget := 150
	req := CompileRequest{
		Sources: bench.Sources,
		Options: OptionsJSON{
			CrossModule: true,
			Profile:     true,
			TrainInputs: bench.Train,
			Budget:      &budget,
		},
		Remarks: true,
	}
	resp, got := postJSON(t, ts.URL+"/compile", mustMarshal(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	// Assemble the same response directly from the driver.
	opts, err := req.Options.driverOptions()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	opts.Obs = rec
	opts.Cache = driver.NewCache()
	c, err := driver.CompileCtx(context.Background(), req.Sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMarshal(buildCompileResponse(c, rec, req.Remarks, false))
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP response differs from direct driver.Compile:\n got: %s\nwant: %s", got, want)
	}
}

// TestTrainMatchesDriver verifies /train returns exactly the
// profile.Write text of a direct training run.
func TestTrainMatchesDriver(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	req := TrainRequest{Sources: []string{slowSource}, TrainInputs: []int64{5}}
	resp, got := postJSON(t, ts.URL+"/train", mustMarshal(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}

	db, err := driver.NewCache().TrainProfile(context.Background(), req.Sources, req.TrainInputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := db.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/train differs from direct TrainProfile:\n got: %q\nwant: %q", got, want.Bytes())
	}
}

// TestQueueSaturation fills the single worker and the one-deep queue
// with slow simulations, then checks the next request is shed with 429
// and a Retry-After hint rather than queued without bound.
func TestQueueSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	launch := func(body []byte) chan error {
		done := make(chan error, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
			_, err := ts.Client().Do(req)
			done <- err
		}()
		return done
	}

	// Distinct budgets keep the three requests out of each other's
	// single-flight groups.
	aDone := launch(runBody(t, spinLong, 50))
	waitFor(t, "first request to occupy the worker", func() bool { return s.Queue().Busy == 1 })
	bDone := launch(runBody(t, spinLong, 60))
	waitFor(t, "second request to queue", func() bool { return s.Queue().Queued == 1 })

	resp, body := postJSON(t, ts.URL+"/run", runBody(t, spinLong, 70))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	} else if n, err := fmt.Sscanf(ra, "%d", new(int)); n != 1 || err != nil {
		t.Errorf("Retry-After %q is not an integer", ra)
	}
	if got := s.Queue().RejectedTotal; got != 1 {
		t.Errorf("RejectedTotal = %d, want 1", got)
	}

	// Abandon the in-flight pair; the server must unwind both promptly.
	cancel()
	<-aDone
	<-bDone
	waitFor(t, "worker and queue to empty after cancel", func() bool {
		q := s.Queue()
		return q.Busy == 0 && q.Queued == 0
	})
}

// TestCancelInFlightRun cancels a /run mid-simulation and checks the
// server unwinds promptly without leaking goroutines.
func TestCancelInFlightRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(runBody(t, spinLong, 100)))
		_, err := ts.Client().Do(req)
		done <- err
	}()
	waitFor(t, "request to start executing", func() bool { return s.Queue().Busy == 1 })

	start := time.Now()
	cancel()
	err := <-done
	if err == nil {
		t.Fatal("canceled request returned a response")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}
	// The simulation checks its context every few thousand instructions;
	// the whole unwind should be near-instant, far under the ~15s the
	// simulation would otherwise run.
	waitFor(t, "worker slot release", func() bool { return s.Queue().Busy == 0 })
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	if got := s.Queue().CompletedTotal; got != 1 {
		t.Errorf("CompletedTotal = %d, want 1 (slot must be released)", got)
	}

	ts.Client().CloseIdleConnections()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// TestSingleFlight sends two byte-identical /run requests concurrently
// and checks they share one execution and one response.
func TestSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	body := runBody(t, spinShort, 100)
	type result struct {
		status int
		data   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, data := postJSON(t, ts.URL+"/run", body)
		results <- result{resp.StatusCode, data}
	}
	go post()
	waitFor(t, "leader to start executing", func() bool { return s.Queue().Busy == 1 })
	go post()

	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200: %s %s", a.status, b.status, a.data, b.data)
	}
	if !bytes.Equal(a.data, b.data) {
		t.Errorf("deduplicated responses differ:\n%s\n%s", a.data, b.data)
	}
	if hits := s.dedupHits.Load(); hits != 1 {
		t.Errorf("dedupHits = %d, want 1", hits)
	}
	// Only the leader consumed a worker slot.
	if got := s.Queue().AdmittedTotal; got != 1 {
		t.Errorf("AdmittedTotal = %d, want 1 (follower must not occupy a slot)", got)
	}
	var run RunResponse
	if err := json.Unmarshal(a.data, &run); err != nil {
		t.Fatalf("bad run response: %v", err)
	}
	if run.Sim == nil || run.Sim.Instrs == 0 {
		t.Errorf("run response missing simulation stats: %s", a.data)
	}
}

// TestRequestTimeout checks that a request's own timeout_ms produces a
// 504 long before the simulation would finish.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	b := 100
	body := mustMarshal(RunRequest{
		CompileRequest: CompileRequest{
			Sources:   []string{slowSource},
			Options:   OptionsJSON{Budget: &b},
			TimeoutMS: 150,
		},
		Inputs: []int64{spinLong},
	})
	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/run", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("timeout took %v, want ~150ms", d)
	}
	if !bytes.Contains(data, []byte("deadline")) {
		t.Errorf("504 body %s does not mention the deadline", data)
	}
}

// TestRequestValidation covers the request-shape error paths.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})

	// Wrong method.
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile = %d, want 405", resp.StatusCode)
	}

	// Malformed JSON.
	resp, data := postJSON(t, ts.URL+"/compile", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON = %d (%s), want 400", resp.StatusCode, data)
	}

	// Trailing data after the request object.
	resp, data = postJSON(t, ts.URL+"/compile", []byte(`{"sources":["module m; func main() int { return 0; }"]} {}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data = %d (%s), want 400", resp.StatusCode, data)
	}

	// No sources.
	resp, data = postJSON(t, ts.URL+"/compile", []byte(`{"sources":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sources = %d (%s), want 400", resp.StatusCode, data)
	}

	// Options out of range.
	resp, data = postJSON(t, ts.URL+"/compile", []byte(`{"sources":["module m; func main() int { return 0; }"],"options":{"budget":-5}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad budget = %d (%s), want 400", resp.StatusCode, data)
	}

	// Source that does not compile.
	resp, data = postJSON(t, ts.URL+"/compile", mustMarshal(CompileRequest{Sources: []string{"module m; func main() int { return undefined_symbol; }"}}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("compile error = %d (%s), want 422", resp.StatusCode, data)
	}

	// Oversized body.
	big := mustMarshal(CompileRequest{Sources: []string{strings.Repeat("/ pad\n", 400)}})
	resp, data = postJSON(t, ts.URL+"/compile", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d (%s), want 413", resp.StatusCode, data)
	}
}

// TestMetricsAndDrain exercises /healthz, /queue, /metrics, and the
// drain flip.
func TestMetricsAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// A successful compile populates the counters.
	resp, data := postJSON(t, ts.URL+"/compile", mustMarshal(CompileRequest{
		Sources: []string{slowSource},
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile = %d: %s", resp.StatusCode, data)
	}

	resp, data = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(data) != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, data)
	}

	resp, data = get(t, ts.URL+"/queue")
	var q QueueState
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("/queue JSON: %v (%s)", err, data)
	}
	if q.Workers != 1 || q.AdmittedTotal != 1 || q.CompletedTotal != 1 {
		t.Errorf("queue state %+v", q)
	}

	_, data = get(t, ts.URL+"/metrics")
	text := string(data)
	for _, want := range []string{
		"hlod_up 1",
		"hlod_workers 1",
		`hlod_requests_total{endpoint="compile",code="200"} 1`,
		"hlod_admitted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	// Draining: healthz flips to 503, new work is refused, metrics says
	// hlod_up 0.
	s.StartDrain()
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/compile", mustMarshal(CompileRequest{Sources: []string{slowSource}}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /compile = %d, want 503", resp.StatusCode)
	}
	_, data = get(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), "hlod_up 0") {
		t.Errorf("draining /metrics missing hlod_up 0:\n%s", data)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}
