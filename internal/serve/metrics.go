package serve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// writeMetrics renders the server's live state in the Prometheus text
// exposition format:
//
//   - hlod_requests_total{endpoint,code} — HTTP requests by outcome,
//     reconstructed from the registry's "http.req|<endpoint>|<code>"
//     counters;
//   - hlod_counter{name} — every other counter in the server-lifetime
//     registry, i.e. the merged per-request obs recorders (hlo.inlines,
//     sim.cycles, backend.code-size, ...);
//   - admission gauges (workers, busy, queued, capacity, totals),
//     single-flight hits, and uptime.
func writeMetrics(w io.Writer, s *Server) error {
	bw := bufio.NewWriter(w)
	st := s.adm.state()

	fmt.Fprintf(bw, "# HELP hlod_up Whether the daemon is serving (0 while draining).\n")
	fmt.Fprintf(bw, "# TYPE hlod_up gauge\n")
	up := 1
	if s.draining.Load() {
		up = 0
	}
	fmt.Fprintf(bw, "hlod_up %d\n", up)
	fmt.Fprintf(bw, "# TYPE hlod_uptime_seconds gauge\n")
	fmt.Fprintf(bw, "hlod_uptime_seconds %.3f\n", time.Since(s.start).Seconds())

	fmt.Fprintf(bw, "# HELP hlod_workers Size of the compile worker pool.\n")
	fmt.Fprintf(bw, "# TYPE hlod_workers gauge\n")
	fmt.Fprintf(bw, "hlod_workers %d\n", st.Workers)
	fmt.Fprintf(bw, "# TYPE hlod_busy_workers gauge\n")
	fmt.Fprintf(bw, "hlod_busy_workers %d\n", st.Busy)
	fmt.Fprintf(bw, "# TYPE hlod_queue_capacity gauge\n")
	fmt.Fprintf(bw, "hlod_queue_capacity %d\n", st.QueueDepth)
	fmt.Fprintf(bw, "# TYPE hlod_queued gauge\n")
	fmt.Fprintf(bw, "hlod_queued %d\n", st.Queued)
	fmt.Fprintf(bw, "# TYPE hlod_admitted_total counter\n")
	fmt.Fprintf(bw, "hlod_admitted_total %d\n", st.AdmittedTotal)
	fmt.Fprintf(bw, "# TYPE hlod_rejected_total counter\n")
	fmt.Fprintf(bw, "hlod_rejected_total %d\n", st.RejectedTotal)
	fmt.Fprintf(bw, "# TYPE hlod_completed_total counter\n")
	fmt.Fprintf(bw, "hlod_completed_total %d\n", st.CompletedTotal)
	fmt.Fprintf(bw, "# TYPE hlod_dedup_hits_total counter\n")
	fmt.Fprintf(bw, "hlod_dedup_hits_total %d\n", s.dedupHits.Load())

	// Farm tier: the shared artifact store's operation counters
	// (hits/misses/puts/evictions/quarantines and the lease protocol's
	// acquires/waits/takeovers), present only when -cache-dir is set.
	if s.store != nil {
		cs := s.store.Counters()
		names := make([]string, 0, len(cs))
		for name := range cs {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(bw, "# HELP hlod_cas Shared artifact store operations by kind.\n")
		fmt.Fprintf(bw, "# TYPE hlod_cas counter\n")
		for _, name := range names {
			fmt.Fprintf(bw, "hlod_cas{op=%q} %d\n", name, cs[name])
		}
		fmt.Fprintf(bw, "# TYPE hlod_cas_bytes gauge\n")
		fmt.Fprintf(bw, "hlod_cas_bytes %d\n", s.store.SizeBytes())
	}
	fmt.Fprintf(bw, "# HELP hlod_panics_total Worker panics contained by the per-request recover boundary.\n")
	fmt.Fprintf(bw, "# TYPE hlod_panics_total counter\n")
	var panics int64
	for _, c := range s.reg.Counters() {
		if c.Name == "serve.panics" {
			panics = c.Value
			break
		}
	}
	fmt.Fprintf(bw, "hlod_panics_total %d\n", panics)

	// Per-endpoint latency histograms. hlod_request_seconds covers every
	// request end to end; for executed work requests the queue-wait vs
	// service-time pair splits that latency into "waited for a worker
	// slot" and "actually compiled/simulated" — the saturation signal.
	s.histReq.write(bw, "hlod_request_seconds", "HTTP request latency by endpoint.")
	s.histQueue.write(bw, "hlod_queue_wait_seconds", "Admission queue wait of executed work requests.")
	s.histService.write(bw, "hlod_service_seconds", "Execution time of admitted work requests (excludes queueing).")

	// Registry counters, split into request counters and the rest. The
	// obs registry returns counters sorted by name, so the rendering is
	// deterministic. serve.panics gets a dedicated always-present series
	// (alerting on a counter that only appears after the first panic is
	// awkward; see hlod_panics_total above), so it is skipped here.
	var reqLines, counterLines []string
	for _, c := range s.reg.Counters() {
		if c.Name == "serve.panics" {
			continue
		}
		if rest, ok := strings.CutPrefix(c.Name, "http.req|"); ok {
			parts := strings.SplitN(rest, "|", 2)
			if len(parts) == 2 {
				reqLines = append(reqLines, fmt.Sprintf(
					"hlod_requests_total{endpoint=%q,code=%q} %d", parts[0], parts[1], c.Value))
				continue
			}
		}
		// %q escaping matches the Prometheus label rules for the plain
		// ASCII names the registry holds: \\ for backslash, \" for the
		// double quote, \n for newline.
		counterLines = append(counterLines, fmt.Sprintf(
			"hlod_counter{name=%q} %d", c.Name, c.Value))
	}
	sort.Strings(reqLines)
	if len(reqLines) > 0 {
		fmt.Fprintf(bw, "# HELP hlod_requests_total HTTP requests by endpoint and status code.\n")
		fmt.Fprintf(bw, "# TYPE hlod_requests_total counter\n")
		for _, l := range reqLines {
			fmt.Fprintln(bw, l)
		}
	}
	if len(counterLines) > 0 {
		fmt.Fprintf(bw, "# HELP hlod_counter Pipeline counters merged from per-request recorders.\n")
		fmt.Fprintf(bw, "# TYPE hlod_counter counter\n")
		for _, l := range counterLines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}
