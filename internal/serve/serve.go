// Package serve is the compilation-as-a-service front door: an HTTP
// daemon (cmd/hlod) exposing the full driver pipeline — compile,
// compile+simulate, and PBO training — with the robustness features a
// long-lived service needs layered over the batch toolchain:
//
//   - Admission control: a bounded queue in front of a par-style
//     worker pool. When the queue is full the server answers 429 with
//     a Retry-After estimate instead of accumulating goroutines.
//   - Cancellation: each request's context (client disconnect and/or
//     per-request deadline) is threaded through driver.CompileCtx into
//     HLO's pass loop, the interpreter's step budget, and the PA8000
//     model, so abandoned work unwinds promptly at every layer.
//   - Single-flight deduplication: concurrent byte-identical requests
//     share one execution and one response, on top of a shared
//     driver.Cache that memoizes front-end and training work across
//     requests.
//   - Observability: every executed request gets a private
//     obs.Recorder; its counters merge into a server-lifetime registry
//     served as Prometheus text at /metrics (remarks and spans stay
//     per-request, so the registry's memory is bounded). Structured
//     JSON access logs record every request.
//
// Endpoints: POST /compile, POST /run, POST /train; GET /healthz,
// GET /queue, GET /metrics.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/profile"
	"repro/internal/resilience"
)

// ptDispatch is the fault-injection point of the worker dispatch (armed
// only by fault campaigns; see internal/resilience).
var ptDispatch = resilience.Register("serve/dispatch", resilience.KindDegrade)

// Config tunes the server. The zero value is serviceable: a
// GOMAXPROCS-sized pool, a queue twice that deep, a 2-minute
// per-request ceiling, an 8 MiB body limit, no access log.
type Config struct {
	// Workers is the size of the compile pool; <= 0 means one per CPU
	// (par.DefaultWorkers).
	Workers int
	// QueueDepth bounds how many admitted-but-waiting requests may
	// exist; beyond it the server sheds load with 429. <= 0 means
	// 2×Workers.
	QueueDepth int
	// RequestTimeout caps every request's execution time; requests may
	// ask for less via timeout_ms but never more. <= 0 means 2m.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. <= 0 means 8 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one JSON line per finished
	// request.
	AccessLog io.Writer
	// Cache is the compilation cache shared by all requests; nil means
	// a fresh one.
	Cache *driver.Cache
	// Store, when non-nil, is the compile farm's shared persistent
	// artifact store (hlod -cache-dir): rendered 200 responses are
	// cached and replayed by content address, cache fills are
	// single-flighted across every process sharing the directory, and
	// the driver cache gains its disk tier (warm starts).
	Store *cas.Store
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on
	// the server's mux (the daemon never serves http.DefaultServeMux).
	Pprof bool
}

// Server is the HTTP handler. Create with New; it is immutable after
// creation apart from the internal registries.
type Server struct {
	cfg     Config
	adm     *admission
	flights flightGroup
	cache   *driver.Cache
	store   *cas.Store    // farm tier; nil for a standalone daemon
	reg     *obs.Recorder // server-lifetime counter registry
	log     *accessLogger
	mux     *http.ServeMux
	start   time.Time
	// life is the server-lifetime span on reg, opened at New and never
	// ended while serving: the shutdown flush reports it open/truncated,
	// which is exactly what it is.
	life     obs.Timer
	draining atomic.Bool
	// Per-endpoint latency histograms (seconds): total request time for
	// every endpoint, and the queue-wait vs service-time split for
	// executed work requests.
	histReq     histVec
	histQueue   histVec
	histService histVec
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * newAdmission(cfg.Workers, 0).workers
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Cache == nil {
		cfg.Cache = driver.NewCache()
	}
	if cfg.Store != nil {
		cfg.Cache.SetStore(cfg.Store)
	}
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.Workers, cfg.QueueDepth),
		cache: cfg.Cache,
		store: cfg.Store,
		reg:   obs.New(),
		log:   newAccessLogger(cfg.AccessLog),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.life = s.reg.Begin("server")
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/queue", s.handleQueue)
	s.mux.HandleFunc("/compile", s.workHandler("compile", s.buildCompile))
	s.mux.HandleFunc("/run", s.workHandler("run", s.buildRun))
	s.mux.HandleFunc("/train", s.workHandler("train", s.buildTrain))
	if cfg.Pprof {
		s.mountPprof()
	}
	return s
}

// StartDrain flips the server into draining mode: /healthz turns 503
// (so load balancers stop routing here) and new work is refused, while
// requests already admitted run to completion. Used by cmd/hlod's
// SIGTERM handler before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Registry exposes the server-lifetime counter registry (tests and
// embedders).
func (s *Server) Registry() *obs.Recorder { return s.reg }

// Store exposes the farm's artifact store; nil for a standalone daemon.
func (s *Server) Store() *cas.Store { return s.store }

// LogShutdown writes the terminal access-log record: the full
// server-lifetime counter registry plus every span still open, marked
// truncated ("open": true) — at minimum the "server" lifetime span.
// cmd/hlod calls this after http.Server.Shutdown completes, so a
// drained daemon's last log line carries everything the registry
// accumulated instead of discarding it with the process.
func (s *Server) LogShutdown() {
	entry := shutdownEntry{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		Event:     "shutdown",
		UptimeSec: time.Since(s.start).Seconds(),
	}
	if cs := s.reg.Counters(); len(cs) > 0 {
		entry.Counters = make(map[string]int64, len(cs))
		for _, c := range cs {
			entry.Counters[c.Name] = c.Value
		}
	}
	for _, sp := range s.reg.Spans() {
		if sp.Open {
			entry.OpenSpans = append(entry.OpenSpans, sp)
		}
	}
	s.log.logJSON(entry)
}

// Queue exposes the live admission snapshot (tests and embedders).
func (s *Server) Queue() QueueState { return s.adm.state() }

// requestMeta rides the request context so the outer access-log
// middleware can see what the handler learned.
type requestMeta struct {
	dedup   bool
	cached  bool
	timeout bool
	err     string
}

type metaKey struct{}

// statusWriter captures the status code and byte count for logging and
// the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// ServeHTTP dispatches to the mux under the logging/counting wrapper.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	meta := &requestMeta{}
	r = r.WithContext(context.WithValue(r.Context(), metaKey{}, meta))
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		// Handler wrote nothing: the client went away mid-request. Log
		// the nginx convention for client-closed-request.
		status = 499
	}
	s.histReq.observe(endpointLabel(r.URL.Path), time.Since(start))
	s.reg.Count("http.req|"+endpointLabel(r.URL.Path)+"|"+strconv.Itoa(status), 1)
	s.log.log(accessEntry{
		Method:  r.Method,
		Path:    r.URL.Path,
		Status:  status,
		DurMS:   float64(time.Since(start)) / float64(time.Millisecond),
		Bytes:   sw.bytes,
		Remote:  r.RemoteAddr,
		Dedup:   meta.dedup,
		Cached:  meta.cached,
		Timeout: meta.timeout,
		Err:     meta.err,
	})
}

// endpointLabel keeps the metrics cardinality bounded: known paths map
// to themselves (sans slash), the pprof tree collapses to one label,
// everything else to "other".
func endpointLabel(path string) string {
	switch path {
	case "/compile", "/run", "/train", "/healthz", "/metrics", "/queue":
		return path[1:]
	}
	if pprofPath(path) {
		return "pprof"
	}
	return "other"
}

func meta(ctx context.Context) *requestMeta {
	if m, ok := ctx.Value(metaKey{}).(*requestMeta); ok {
		return m
	}
	return &requestMeta{}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s)
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	data, _ := json.MarshalIndent(s.adm.state(), "", "  ")
	w.Write(append(data, '\n'))
}

// jsonError renders an error body for the given status.
func jsonError(status int, msg string) *flightResult {
	body, _ := json.Marshal(map[string]string{"error": msg})
	return &flightResult{
		status:      status,
		contentType: "application/json",
		body:        append(body, '\n'),
	}
}

// workHandler wraps one work endpoint with the full service spine:
// method/drain checks, body limits, single-flight coalescing, and
// admission control. build runs the actual work once admitted.
func (s *Server) workHandler(endpoint string, build func(ctx context.Context, body []byte) *flightResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := meta(r.Context())
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeResult(w, jsonError(http.StatusMethodNotAllowed, "POST required"))
			return
		}
		if s.draining.Load() {
			writeResult(w, jsonError(http.StatusServiceUnavailable, "draining"))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeResult(w, jsonError(http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)))
				return
			}
			m.err = "read body: " + err.Error()
			return // client gone mid-upload; nothing to write
		}

		// The flight key is endpoint + body hash: every request is a pure
		// function of its body, so identical bodies share one execution.
		sum := sha256.Sum256(body)
		key := endpoint + "\x00" + string(sum[:])
		res, shared, err := s.flights.do(r.Context(), key, func() *flightResult {
			return s.executeFarm(r.Context(), endpoint, body, build)
		})
		if err != nil {
			// Our own client disconnected while we waited on a flight.
			m.err = "client gone: " + err.Error()
			return
		}
		if res.canceled {
			// We were the leader and our client disconnected mid-work.
			m.err = "client gone mid-request"
			return
		}
		m.dedup = shared
		m.cached = res.cached
		if res.status == http.StatusGatewayTimeout {
			m.timeout = true
		}
		writeResult(w, res)
	}
}

// execute admits the request into the worker pool and runs build under
// the per-request deadline. Queue-full and cancellation outcomes are
// rendered here so every path yields a flightResult. The admission wait
// and the guarded execution are timed separately — the queue-wait vs
// service-time split that distinguishes "the server is saturated" from
// "compiles are slow" — and recorded both on the result (response
// headers) and in the per-endpoint histograms. The build runs under a
// runtime/pprof endpoint label, so a CPU profile of the daemon can be
// sliced per endpoint.
func (s *Server) execute(ctx context.Context, endpoint string, body []byte, build func(ctx context.Context, body []byte) *flightResult) *flightResult {
	q0 := time.Now()
	release, retryAfter, err := s.adm.admit(ctx)
	queueWait := time.Since(q0)
	if errors.Is(err, errQueueFull) {
		res := jsonError(http.StatusTooManyRequests, "compile queue full, retry later")
		res.retryAfter = retryAfter
		return res
	}
	if err != nil {
		return &flightResult{canceled: true} // our client gave up while queued
	}
	defer release()
	s0 := time.Now()
	var res *flightResult
	pprof.Do(ctx, pprof.Labels("endpoint", endpoint), func(ctx context.Context) {
		res = s.runGuarded(ctx, body, build)
	})
	service := time.Since(s0)
	s.histQueue.observe(endpoint, queueWait)
	s.histService.observe(endpoint, service)
	res.queueNS = queueWait.Nanoseconds()
	res.serviceNS = service.Nanoseconds()
	res.timed = true
	return res
}

// runGuarded runs one admitted request under a recover boundary: a
// panic anywhere in the pipeline (or the serve/dispatch fault point)
// becomes a 500 carrying the panic value instead of killing the daemon,
// counted as serve.panics (exported as hlod_panics_total). The worker
// slot is released normally by execute's deferred release — a panicking
// request can never leak pool capacity.
func (s *Server) runGuarded(ctx context.Context, body []byte, build func(ctx context.Context, body []byte) *flightResult) (res *flightResult) {
	defer func() {
		if r := recover(); r != nil {
			s.reg.Count("serve.panics", 1)
			res = jsonError(http.StatusInternalServerError, fmt.Sprintf("internal error: %v", r))
		}
	}()
	ptDispatch.Inject()
	return build(ctx, body)
}

// deadline derives the execution context for one request: the client's
// context bounded by the server ceiling, tightened further by the
// request's own timeout_ms.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(ctx, d)
}

// finish classifies a failed pipeline stage. A deadline (server
// ceiling or the request's own timeout_ms) is a shareable 504 — an
// identical request would time out the same way. A plain cancellation
// can only mean the leader's client disconnected, so the flight is
// marked canceled and never shared; a waiting follower retries under
// its own live context. Everything else is a 422 compile-level
// failure.
func finish(err error) *flightResult {
	if errors.Is(err, context.DeadlineExceeded) {
		return jsonError(http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	}
	if errors.Is(err, context.Canceled) {
		return &flightResult{canceled: true}
	}
	return jsonError(http.StatusUnprocessableEntity, err.Error())
}

// workLabels is the runtime/pprof label set for one pipeline stage of
// one request: the phase (compile/simulate/train) plus the client's
// self-reported tag (benchmark name, experiment cell) when present.
// Profiles scraped from /debug/pprof can then be sliced by either.
func workLabels(tag, phase string) pprof.LabelSet {
	if tag == "" {
		return pprof.Labels("phase", phase)
	}
	return pprof.Labels("phase", phase, "tag", tag)
}

// mergeCounters folds one request's recorder into the server-lifetime
// registry. Only counters cross over — remarks and spans stay with the
// request, so the registry cannot grow without bound.
func (s *Server) mergeCounters(rec *obs.Recorder) {
	for _, c := range rec.Counters() {
		s.reg.Count(c.Name, c.Value)
	}
}

func (s *Server) buildCompile(ctx context.Context, body []byte) *flightResult {
	var req CompileRequest
	if err := decodeRequest(body, &req); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	if err := req.validate(); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	opts, err := req.Options.driverOptions()
	if err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()

	rec := obs.New()
	opts.Obs = rec
	opts.Cache = s.cache
	var c *driver.Compilation
	rsp := rec.Begin("request/compile")
	pprof.Do(ctx, workLabels(req.Tag, "compile"), func(ctx context.Context) {
		c, err = driver.CompileCtx(ctx, req.Sources, opts)
	})
	rsp.End()
	s.mergeCounters(rec)
	if err != nil {
		return finish(err)
	}
	return s.jsonResult(buildCompileResponse(c, rec, req.Remarks, req.Spans))
}

func (s *Server) buildRun(ctx context.Context, body []byte) *flightResult {
	var req RunRequest
	if err := decodeRequest(body, &req); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	if err := req.validate(); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	opts, err := req.Options.driverOptions()
	if err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()

	rec := obs.New()
	opts.Obs = rec
	opts.Cache = s.cache
	var c *driver.Compilation
	rsp := rec.Begin("request/run")
	pprof.Do(ctx, workLabels(req.Tag, "compile"), func(ctx context.Context) {
		c, err = driver.CompileCtx(ctx, req.Sources, opts)
	})
	if err != nil {
		rsp.End()
		s.mergeCounters(rec)
		return finish(err)
	}
	var st *pa8000.Stats
	pprof.Do(ctx, workLabels(req.Tag, "simulate"), func(ctx context.Context) {
		st, err = c.RunCtx(ctx, opts, req.Inputs)
	})
	rsp.End()
	s.mergeCounters(rec)
	if err != nil {
		return finish(err)
	}
	return s.jsonResult(RunResponse{
		CompileResponse: buildCompileResponse(c, rec, req.Remarks, req.Spans),
		Sim:             st,
		CPI:             st.CPI(),
	})
}

func (s *Server) buildTrain(ctx context.Context, body []byte) *flightResult {
	var req TrainRequest
	if err := decodeRequest(body, &req); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	if err := req.validate(); err != nil {
		return jsonError(http.StatusBadRequest, "bad request: "+err.Error())
	}
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()

	rec := obs.New()
	var db *profile.Data
	var err2 error
	rsp := rec.Begin("request/train")
	pprof.Do(ctx, workLabels(req.Tag, "train"), func(ctx context.Context) {
		db, err2 = s.cache.TrainProfileObs(ctx, req.Sources, req.TrainInputs, req.ExtraTrainInputs, rec)
	})
	rsp.End()
	s.mergeCounters(rec)
	if err2 != nil {
		return finish(err2)
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		return jsonError(http.StatusInternalServerError, err.Error())
	}
	return &flightResult{
		status:      http.StatusOK,
		contentType: "text/plain; charset=utf-8",
		body:        buf.Bytes(),
	}
}

// writeResult flushes a flightResult onto the wire. Executed results
// carry the queue/service split as headers, so clients (hloload) can
// separate time spent waiting for a worker from time spent compiling
// without the server keeping any per-client state.
func writeResult(w http.ResponseWriter, res *flightResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
	}
	if res.timed {
		w.Header().Set("X-Hlod-Queue-Ms", formatMS(res.queueNS))
		w.Header().Set("X-Hlod-Service-Ms", formatMS(res.serviceNS))
	}
	if res.cached {
		w.Header().Set("X-Hlod-Cache", "hit")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// formatMS renders nanoseconds as decimal milliseconds for the timing
// headers.
func formatMS(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64)
}
