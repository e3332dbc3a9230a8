// Command fdd is the Fortran D compile daemon: it serves compilations
// and simulated runs over HTTP/JSON from one process-wide fortd.Service,
// so every request shares the summary cache (optionally disk-persisted
// across restarts), the bounded worker pool and per-session rate limits.
//
// Endpoints:
//
//	POST /compile      {"session","source","options":{...},"explain"}
//	POST /run          {"session","id"|"source","init","reference"};
//	                   ?profile=true (or "profile":true) stores a
//	                   profile artifact and returns its profileId
//	GET  /report/{id}  HTML performance report for a compiled program;
//	                   ?session= rate-limits it, and it counts as a run
//	GET  /profile/{id} stored profile artifact (canonical JSON bytes)
//	GET  /profiles     stored-profile listing; ?program= filters by hash
//	GET  /healthz      liveness (also GET /livez)
//	GET  /readyz       readiness; 503 once the daemon is draining
//	GET  /stats        service + cache + process counters (JSON)
//	GET  /metrics      Prometheus text exposition of the same telemetry
//	GET  /debug/pprof  net/http/pprof profiling (only with -pprof)
//
// Errors are structured JSON ({"error":{"kind","message","detail"}})
// carrying the library's typed errors: parse errors keep their line
// positions, deadlock and abort reports their per-processor detail,
// and rate-limit/overload map onto 429/503 (429s carry a Retry-After
// derived from the token-bucket refill). Every request gets a
// generated-or-propagated X-Request-ID, echoed in the response
// header, logged in the per-request JSON log line, and included in
// every error's detail.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fortd"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8700", "listen address")
		cacheDir    = flag.String("cache-dir", "", "disk-persist the summary cache under this directory")
		profileDir  = flag.String("profile-dir", "", "persist run-profile artifacts under this directory (empty: in-memory only)")
		workers     = flag.Int("workers", 0, "max concurrently executing requests (0: GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "max requests waiting for a worker (0: 4x workers)")
		rate        = flag.Float64("rate", 0, "per-session sustained requests/sec (0: unlimited)")
		burst       = flag.Int("burst", 0, "per-session burst capacity (0: 2x rate)")
		compileWall = flag.Duration("compile-deadline", 0, "per-compile wall-clock bound (0: none)")
		runWall     = flag.Duration("run-deadline", 10*time.Second, "per-run wall-clock bound (0: none)")
		jobs        = flag.Int("jobs", 0, "phase-3 workers per compile (0: serial)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof (opt-in; leaks process internals)")
		drain       = flag.Duration("drain", 2*time.Second, "hold /readyz at 503 this long before shutdown on SIGINT/SIGTERM")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		overlap     = flag.Bool("overlap", true, "compile with the communication-overlap schedule by default (requests may override Options)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "fdd: bad -log-level:", err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	base := fortd.DefaultOptions().WithOverlap(*overlap)
	base.Jobs = *jobs
	cfg := fortd.ServiceConfig{
		Options:     withDeadline(base, *compileWall),
		CacheDir:    *cacheDir,
		ProfileDir:  *profileDir,
		Workers:     *workers,
		QueueDepth:  *queue,
		RateLimit:   *rate,
		RateBurst:   *burst,
		RunDeadline: *runWall,
	}
	svc, err := fortd.NewService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdd:", err)
		os.Exit(1)
	}
	defer svc.Close()

	tel := newTelemetry(logger, svc.Metrics())
	if dir := svc.Cache().Stats().Dir; dir != "" {
		logger.Info("summary cache persisted", "dir", dir)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(svc, base, tel, *pprofOn),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Info("listening", "addr", "http://"+*addr, "pprof", *pprofOn)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: fail readiness so load balancers stop sending work, give
	// them a beat to notice, then shut down (waiting for in-flight
	// requests) and close the service.
	tel.ready.Store(false)
	logger.Info("draining", "delay", *drain)
	time.Sleep(*drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown incomplete", "err", err)
	}
	logger.Info("stopped")
}

func withDeadline(o fortd.Options, d time.Duration) fortd.Options {
	o.Deadline = d
	return o
}
