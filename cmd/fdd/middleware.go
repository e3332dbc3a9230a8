package main

// Cross-cutting request telemetry for the daemon: every handler is
// wrapped with (1) a generated-or-propagated X-Request-ID stored in
// the context (fortd.WithRequestID) so the Service tags its failures
// with it, (2) one structured JSON log line per request, and (3)
// per-endpoint request/status counters and latency histograms. The
// route label is normalized from a fixed set so a hostile client
// cannot explode metric cardinality with arbitrary paths.

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fortd"
	"fortd/internal/metrics"
)

// telemetry is the daemon's observability state: the structured
// logger, the HTTP-layer instruments, the readiness flag flipped during
// drain, and the process start time behind /stats uptime.
type telemetry struct {
	log   *slog.Logger
	start time.Time
	ready atomic.Bool

	requests *metrics.CounterVec   // route, method, status
	latency  *metrics.HistogramVec // route
}

// newTelemetry builds the daemon's telemetry and registers the
// HTTP-layer and process-level families on the Service's registry.
func newTelemetry(logger *slog.Logger, reg *metrics.Registry) *telemetry {
	t := &telemetry{log: logger, start: time.Now()}
	t.ready.Store(true)
	t.requests = reg.CounterVec("fdd_http_requests_total", "HTTP requests by route, method and status.", "route", "method", "status")
	t.latency = reg.HistogramVec("fdd_http_request_seconds", "HTTP request latency by route.", nil, "route")
	reg.GaugeFunc("fdd_process_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(t.start).Seconds() })
	reg.GaugeFunc("fdd_process_goroutines", "Live goroutines in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("fdd_ready", "1 while serving, 0 once draining (mirrors /readyz).",
		func() float64 {
			if t.ready.Load() {
				return 1
			}
			return 0
		})
	return t
}

// routeLabel maps a request path onto its metrics label. Unknown
// paths collapse into "other".
func routeLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/report/"):
		return "/report/{id}"
	case strings.HasPrefix(path, "/profile/"):
		return "/profile/{id}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	switch path {
	case "/compile", "/run", "/healthz", "/livez", "/readyz", "/stats", "/metrics", "/profiles":
		return path
	}
	return "other"
}

// newRequestID returns a fresh 16-hex-char request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble;
		// a constant id keeps requests serviceable and greppable.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status and body size.
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

// wrap is the outermost handler: request-id propagation, structured
// access logging, and per-endpoint metrics.
func (t *telemetry) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(fortd.WithRequestID(r.Context(), id)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := routeLabel(r.URL.Path)
		t.requests.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
		t.latency.With(route).Observe(elapsed.Seconds())
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelWarn
		}
		t.log.LogAttrs(r.Context(), level, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}
