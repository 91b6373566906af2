// Command hlod is the compilation-as-a-service daemon: the full hlocc
// pipeline (frontend → HLO → backend, plus training and PA8000
// simulation) behind an HTTP front door with admission control,
// per-request cancellation, single-flight deduplication, live metrics,
// and graceful drain.
//
// Usage:
//
//	hlod [flags]
//
// Flags:
//
//	-addr :8080       listen address
//	-workers N        compile worker pool size (default: one per CPU)
//	-queue N          admission queue depth (default: 2×workers)
//	-timeout 2m       per-request execution ceiling
//	-max-body 8388608 request body limit in bytes
//	-drain 30s        graceful-drain deadline after SIGTERM/SIGINT
//	-quiet            disable the JSON access log on stderr
//	-pprof            mount net/http/pprof under /debug/pprof/ (default true)
//	-cache-dir DIR    shared persistent artifact store (compile farm mode):
//	                  responses and trained profiles are cached on disk
//	                  by content address, cache fills are
//	                  single-flighted across every daemon sharing DIR, and a
//	                  restarted daemon warm-starts from it
//	-cache-max N      artifact store size cap in bytes (default 256 MiB)
//	-cache-scrub      validate the store on startup: quarantine torn objects,
//	                  restore salvageable quarantined ones (default true)
//	-cache-gc 1m      background store GC sweep period: generational LRU
//	                  eviction, crash-debris removal, size re-pricing (0 = off)
//
// Endpoints:
//
//	POST /compile     sources + options → stats, compile cost, code size, remarks
//	POST /run         compile + PA8000 simulation → the above + cycles/CPI/output
//	POST /train       training run → profile database (profile.Write text format)
//	GET  /healthz     liveness (503 while draining)
//	GET  /queue       admission-control snapshot (JSON)
//	GET  /metrics     Prometheus text format (incl. per-endpoint latency
//	                  histograms and the queue-wait vs service-time split)
//	GET  /debug/pprof/*  CPU/heap/goroutine profiles (unless -pprof=false)
//
// On SIGTERM (or SIGINT) the daemon stops admitting work, fails
// /healthz so load balancers drain it, finishes in-flight requests,
// flushes a terminal "shutdown" record — the server-lifetime counter
// registry plus any spans still open, marked truncated — to the access
// log, and exits within -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/pa8000"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "compile worker pool size (0 = one per CPU)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2×workers)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request execution ceiling")
	maxBody := flag.Int64("max-body", 8<<20, "request body limit in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain deadline on SIGTERM")
	quiet := flag.Bool("quiet", false, "disable the JSON access log")
	pprofFlag := flag.Bool("pprof", true, "mount net/http/pprof under /debug/pprof/")
	cacheDir := flag.String("cache-dir", "", "shared persistent artifact store directory (farm mode)")
	cacheMax := flag.Int64("cache-max", 0, "artifact store size cap in bytes (0 = 256 MiB)")
	cacheScrub := flag.Bool("cache-scrub", true, "validate the artifact store on startup, quarantining torn objects")
	cacheGC := flag.Duration("cache-gc", time.Minute, "background store GC sweep period (0 = off)")
	flag.Parse()

	var accessLog io.Writer = os.Stderr
	if *quiet {
		accessLog = nil
	}
	var store *cas.Store
	if *cacheDir != "" {
		var err error
		store, err = cas.Open(*cacheDir, cas.Options{MaxBytes: *cacheMax})
		if err != nil {
			fatal(fmt.Errorf("open -cache-dir: %v", err))
		}
		fmt.Fprintf(os.Stderr, "hlod: artifact store at %s (%d bytes resident)\n",
			*cacheDir, store.SizeBytes())
		if *cacheScrub {
			// Crash-recovery scrub: a previous daemon (ours or a
			// sibling's) may have died mid-write. Quarantine torn
			// objects and restore any quarantined-but-valid ones
			// before serving from the store.
			rep := store.Scrub()
			fmt.Fprintf(os.Stderr, "hlod: store scrub: %d checked, %d quarantined, %d repaired, %d errors\n",
				rep.Checked, rep.Quarantined, rep.Repaired, rep.Errors)
		}
		if *cacheGC > 0 {
			store.StartGC(*cacheGC)
			defer store.StopGC()
		}
	}
	s := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		AccessLog:      accessLog,
		Pprof:          *pprofFlag,
		Store:          store,
	})
	srv := &http.Server{Addr: *addr, Handler: s}
	// Pin one simulator arena per worker up front: the 32 MB refills a
	// GC-drained sync.Pool forces would otherwise land inside the first
	// /run requests after an idle period.
	pa8000.Prewarm(pa8000.Config{}, min(s.Queue().Workers, 4))

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hlod: listening on %s (%d workers, queue %d)\n",
		*addr, s.Queue().Workers, s.Queue().QueueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "hlod: %v: draining (deadline %s)\n", got, *drain)
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// In-flight requests outlived the drain deadline; their
			// contexts are canceled by Close and they unwind promptly.
			srv.Close()
			s.LogShutdown()
			fatal(fmt.Errorf("drain incomplete: %v", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		// Last log line: the server-lifetime counter registry and any
		// spans still open (truncated) — the drain must not discard them.
		s.LogShutdown()
		fmt.Fprintln(os.Stderr, "hlod: drained cleanly")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlod:", err)
	os.Exit(1)
}
