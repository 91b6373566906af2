// Command hloload is the load and soak harness for hlod and the compile
// farm. It drives N concurrent closed-loop clients over the specsuite
// benchmark × budget matrix for a fixed duration and reports throughput
// and latency percentiles. With -backends it drives a farm of daemons
// directly, sharding each request body to one daemon by rendezvous
// hash.
//
// Usage:
//
//	hloload [flags]
//
// Flags:
//
//	-addr URL      daemon base URL (default http://127.0.0.1:8080)
//	-backends URL,URL,...  farm mode: shard each request body to its
//	               rendezvous-hash daemon (overrides -addr)
//	-c N           concurrent clients (default 4)
//	-d 10s         run duration
//	-endpoint E    compile | run (default compile)
//	-bench a,b,c   specsuite benchmarks to cycle (default small trio)
//	-budgets list  HLO budgets to cycle (default 50,100,150,200)
//	-profile       enable PBO (training) on every request
//	-cross         cross-module scope
//	-retries N     per-request retry budget for 429/transport failures
//	               (default 0 = unlimited)
//	-backoff D     first backoff delay; grows exponentially with jitter,
//	               always honoring the server's Retry-After — both its
//	               delta-seconds and HTTP-date forms (default 50ms)
//	-backoff-cap D ceiling on the exponential backoff (default 2s)
//	-seed N        jitter seed, for reproducible retry schedules
//
// Exit status is non-zero if the run completed no 2xx request, or saw
// any transport error or any response that was neither 2xx nor 429 —
// under admission control those are the only healthy answers, which
// makes hloload double as the CI smoke check against a live daemon or
// a whole farm.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	backends := flag.String("backends", "", "comma-separated hlod base URLs (client-side rendezvous sharding)")
	clients := flag.Int("c", 4, "concurrent clients")
	dur := flag.Duration("d", 10*time.Second, "run duration")
	endpoint := flag.String("endpoint", "compile", "compile | run")
	bench := flag.String("bench", "", "comma-separated specsuite benchmarks")
	budgets := flag.String("budgets", "", "comma-separated HLO budgets")
	profileFlag := flag.Bool("profile", false, "enable PBO training on every request")
	cross := flag.Bool("cross", false, "cross-module scope")
	retries := flag.Int("retries", 0, "per-request retry budget (0 = unlimited)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "first backoff delay")
	backoffCap := flag.Duration("backoff-cap", 2*time.Second, "exponential backoff ceiling")
	seed := flag.Int64("seed", 0, "jitter seed for reproducible retry schedules")
	flag.Parse()

	cfg := serve.LoadConfig{
		BaseURL:     strings.TrimRight(*addr, "/"),
		Clients:     *clients,
		Duration:    *dur,
		Endpoint:    *endpoint,
		Profile:     *profileFlag,
		CrossModule: *cross,
		Retry: serve.RetryConfig{
			Retries: *retries,
			Base:    *backoff,
			Cap:     *backoffCap,
			Seed:    *seed,
		},
	}
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			cfg.Backends = append(cfg.Backends, strings.TrimRight(b, "/"))
		}
	}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
	}
	for _, b := range strings.Split(*budgets, ",") {
		if b = strings.TrimSpace(b); b != "" {
			v, err := strconv.Atoi(b)
			if err != nil {
				fatal(fmt.Errorf("bad budget %q: %v", b, err))
			}
			cfg.Budgets = append(cfg.Budgets, v)
		}
	}

	rep, err := serve.RunLoad(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("endpoint=%s clients=%d duration=%.1fs\n", cfg.Endpoint, cfg.Clients, rep.WallS)
	fmt.Printf("requests=%d throughput=%.1f req/s rejected-429=%d transport-errors=%d bad-responses=%d\n",
		rep.Requests, rep.Throughput, rep.Rejected, rep.TransportErrors, rep.BadResponses)
	fmt.Printf("retries=%d dropped=%d\n", rep.Retries, rep.Dropped)
	fmt.Printf("latency p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
		rep.P50MS, rep.P90MS, rep.P99MS, rep.MaxMS)
	fmt.Printf("queue-wait p50=%.1fms p99=%.1fms  service p50=%.1fms p99=%.1fms\n",
		rep.QueueP50MS, rep.QueueP99MS, rep.ServiceP50MS, rep.ServiceP99MS)
	for code, n := range rep.ByStatus {
		fmt.Printf("  status %s: %d\n", code, n)
	}

	if !rep.Healthy() {
		fmt.Fprintln(os.Stderr, "hloload: unhealthy run (no 2xx response, non-2xx/429 responses or transport errors)")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hloload:", err)
	os.Exit(1)
}
