package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/specsuite"
)

// LoadConfig configures a load-generation run against a live hlod.
type LoadConfig struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Backends, when non-empty, turns on client-side sharding for a
	// farm of daemons sharing one store: each request body routes to the
	// first entry of RendezvousOrder(key, Backends), and BaseURL is
	// ignored.
	Backends []string
	// Clients is the number of concurrent requesters (default 4).
	Clients int
	// Duration is how long to keep sending (default 10s).
	Duration time.Duration
	// Endpoint is "compile" or "run" (default "compile").
	Endpoint string
	// Benchmarks names the specsuite programs to cycle through; empty
	// means a small fast trio.
	Benchmarks []string
	// Budgets are HLO budgets cycled across requests so consecutive
	// requests differ (exercising the cache rather than single-flight);
	// empty means {50, 100, 150, 200}.
	Budgets []int
	// Profile turns on PBO (training runs) for every request.
	Profile bool
	// CrossModule compiles at link-time scope (default matches the
	// paper's "c"/"cp" rows; base scope if false).
	CrossModule bool
	// ClientTimeout caps each HTTP request (default 2m).
	ClientTimeout time.Duration
	// Retry tunes 429/transport-failure handling: jittered exponential
	// backoff honoring Retry-After and a per-request retry budget. The
	// zero value keeps the historical flat 50ms pause.
	Retry RetryConfig
}

// LoadReport summarizes a load run. BadResponses counts everything
// that is neither 2xx nor 429 — under admission control those are the
// only healthy answers, so any other status (or transport error) marks
// the run unhealthy.
type LoadReport struct {
	Requests        int            `json:"requests"`
	TransportErrors int            `json:"transport_errors"`
	Rejected        int            `json:"rejected_429"`
	BadResponses    int            `json:"bad_responses"`
	Retries         int            `json:"retries"`
	Dropped         int            `json:"dropped"` // bodies abandoned after the retry budget
	ByStatus        map[string]int `json:"by_status"`
	WallS           float64        `json:"wall_s"`
	Throughput      float64        `json:"throughput_rps"` // 2xx completions per second
	P50MS           float64        `json:"p50_ms"`
	P90MS           float64        `json:"p90_ms"`
	P99MS           float64        `json:"p99_ms"`
	MaxMS           float64        `json:"max_ms"`
	// Queue-wait vs service-time split, parsed from the daemon's
	// X-Hlod-Queue-Ms / X-Hlod-Service-Ms response headers on 2xx
	// responses. Queue percentiles rising while service percentiles hold
	// means the daemon is saturated, not slower.
	QueueP50MS   float64 `json:"queue_p50_ms"`
	QueueP99MS   float64 `json:"queue_p99_ms"`
	ServiceP50MS float64 `json:"service_p50_ms"`
	ServiceP99MS float64 `json:"service_p99_ms"`
}

// Healthy reports whether the run saw only 2xx/429 responses and no
// transport errors.
func (r *LoadReport) Healthy() bool {
	return r.TransportErrors == 0 && r.BadResponses == 0
}

// clientStats accumulates one requester's outcomes; summarize folds a
// slice of them into a LoadReport.
type clientStats struct {
	latenciesMS []float64
	queueMS     []float64
	serviceMS   []float64
	byStatus    map[int]int
	transport   int
	retries     int
	dropped     int
}

// RunLoad drives load at a daemon (or a farm) and aggregates throughput
// and latency percentiles (measured over successful 2xx requests).
// Clients concurrent closed-loop requesters cycle the benchmark × budget
// matrix for Duration, each waiting for its response; Backends turns on
// client-side rendezvous sharding.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Endpoint == "" {
		cfg.Endpoint = "compile"
	}
	if cfg.Endpoint != "compile" && cfg.Endpoint != "run" {
		return nil, fmt.Errorf("loadgen: unknown endpoint %q", cfg.Endpoint)
	}
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = []string{"022.li", "026.compress", "008.espresso"}
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []int{50, 100, 150, 200}
	}
	if cfg.ClientTimeout <= 0 {
		cfg.ClientTimeout = 2 * time.Minute
	}

	bodies, err := loadBodies(cfg)
	if err != nil {
		return nil, err
	}
	urls := targetURLs(cfg, bodies)

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	client := &http.Client{Timeout: cfg.ClientTimeout}

	retry := cfg.Retry.withDefaults()
	stats := make([]clientStats, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.byStatus = make(map[int]int)
			bo := newBackoff(retry, c)
			pause := func(d time.Duration) bool {
				select {
				case <-time.After(d):
					return true
				case <-ctx.Done():
					return false
				}
			}
			for i := c; ctx.Err() == nil; i++ {
				body := bodies[i%len(bodies)]
				url := urls[i%len(bodies)]
				// Retry loop for this body: 429s and transport errors back
				// off and resend; anything else moves to the next body.
				for attempt := 0; ctx.Err() == nil; {
					t0 := time.Now()
					req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
					if err != nil {
						st.transport++
						break
					}
					req.Header.Set("Content-Type", "application/json")
					resp, err := client.Do(req)
					retryAfter := time.Duration(0)
					retryable := false
					if err != nil {
						if ctx.Err() != nil {
							return // run over; an aborted in-flight request is not an error
						}
						st.transport++
						retryable = true
					} else {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						st.byStatus[resp.StatusCode]++
						if resp.StatusCode/100 == 2 {
							st.latenciesMS = append(st.latenciesMS, float64(time.Since(t0))/float64(time.Millisecond))
							if v, ok := parseMSHeader(resp, "X-Hlod-Queue-Ms"); ok {
								st.queueMS = append(st.queueMS, v)
							}
							if v, ok := parseMSHeader(resp, "X-Hlod-Service-Ms"); ok {
								st.serviceMS = append(st.serviceMS, v)
							}
						}
						retryable = resp.StatusCode == http.StatusTooManyRequests
						retryAfter = parseRetryAfter(resp)
					}
					if !retryable {
						break
					}
					if retry.Retries > 0 && attempt+1 >= retry.Retries {
						st.dropped++ // budget spent; abandon this body
						break
					}
					st.retries++
					if !pause(bo.delay(attempt, retryAfter)) {
						return
					}
					attempt++
				}
			}
		}(c)
	}
	wg.Wait()
	return summarize(stats, time.Since(start)), nil
}

// summarize folds per-requester stats into one report; percentiles are
// over 2xx requests only.
func summarize(stats []clientStats, wall time.Duration) *LoadReport {
	rep := &LoadReport{ByStatus: make(map[string]int), WallS: wall.Seconds()}
	var lat, queue, service []float64
	for i := range stats {
		st := &stats[i]
		rep.TransportErrors += st.transport
		rep.Retries += st.retries
		rep.Dropped += st.dropped
		for code, n := range st.byStatus {
			rep.Requests += n
			rep.ByStatus[fmt.Sprintf("%d", code)] += n
			switch {
			case code/100 == 2:
			case code == http.StatusTooManyRequests:
				rep.Rejected += n
			default:
				rep.BadResponses += n
			}
		}
		lat = append(lat, st.latenciesMS...)
		queue = append(queue, st.queueMS...)
		service = append(service, st.serviceMS...)
	}
	rep.Requests += rep.TransportErrors
	sort.Float64s(lat)
	if n := len(lat); n > 0 {
		rep.Throughput = float64(n) / wall.Seconds()
		rep.P50MS = lat[n*50/100]
		rep.P90MS = lat[n*90/100]
		rep.P99MS = lat[n*99/100]
		rep.MaxMS = lat[n-1]
	}
	sort.Float64s(queue)
	if n := len(queue); n > 0 {
		rep.QueueP50MS = queue[n*50/100]
		rep.QueueP99MS = queue[n*99/100]
	}
	sort.Float64s(service)
	if n := len(service); n > 0 {
		rep.ServiceP50MS = service[n*50/100]
		rep.ServiceP99MS = service[n*99/100]
	}
	return rep
}

// targetURLs resolves each body's destination once, up front: BaseURL
// for a single daemon, or the body's first-choice backend under
// rendezvous hashing.
func targetURLs(cfg LoadConfig, bodies [][]byte) []string {
	urls := make([]string, len(bodies))
	for i, body := range bodies {
		base := cfg.BaseURL
		if len(cfg.Backends) > 0 {
			base = RendezvousOrder(cfg.Endpoint+"\x00"+string(body), cfg.Backends)[0]
		}
		urls[i] = base + "/" + cfg.Endpoint
	}
	return urls
}

// RendezvousOrder ranks backends for key by rendezvous (highest-random-
// weight) hashing: every client that knows the backend set computes the
// same preference order for a key with no coordination, and removing a
// backend only remaps the keys that were on it.
func RendezvousOrder(key string, backends []string) []string {
	type ranked struct {
		url    string
		weight uint64
	}
	rs := make([]ranked, len(backends))
	for i, b := range backends {
		h := fnv.New64a()
		io.WriteString(h, key)
		h.Write([]byte{0})
		io.WriteString(h, b)
		rs[i] = ranked{url: b, weight: h.Sum64()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].weight != rs[j].weight {
			return rs[i].weight > rs[j].weight
		}
		return rs[i].url < rs[j].url // deterministic on (absurdly unlikely) ties
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.url
	}
	return out
}

// parseMSHeader reads a millisecond float header set by writeResult on
// executed work responses (absent on pre-admission rejections).
func parseMSHeader(resp *http.Response, name string) (float64, bool) {
	v := resp.Header.Get(name)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return ms, true
}

// loadBodies pre-renders the request matrix: every benchmark under
// every budget, so consecutive requests from one client differ and the
// server's caches (not just single-flight) carry the load.
func loadBodies(cfg LoadConfig) ([][]byte, error) {
	var bodies [][]byte
	for _, name := range cfg.Benchmarks {
		b, err := specsuite.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, budget := range cfg.Budgets {
			budget := budget
			creq := CompileRequest{
				Sources: b.Sources,
				Tag:     name,
				Options: OptionsJSON{
					CrossModule: cfg.CrossModule,
					Profile:     cfg.Profile,
					TrainInputs: b.Train,
					Budget:      &budget,
				},
			}
			var body []byte
			if cfg.Endpoint == "run" {
				body = mustMarshal(RunRequest{CompileRequest: creq, Inputs: b.Train})
			} else {
				body = mustMarshal(creq)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies, nil
}
