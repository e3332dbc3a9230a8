package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fortd"
)

func newTestHandler(t *testing.T, cfg fortd.ServiceConfig) http.Handler {
	h, _ := newTestServer(t, cfg, false)
	return h
}

// newTestServer builds a full daemon handler — Service, telemetry
// middleware on its registry — around a quiet logger.
func newTestServer(t *testing.T, cfg fortd.ServiceConfig, pprofOn bool) (http.Handler, *telemetry) {
	t.Helper()
	svc, err := fortd.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	tel := newTelemetry(slog.New(slog.NewJSONHandler(io.Discard, nil)), svc.Metrics())
	return newServer(svc, fortd.DefaultOptions(), tel, pprofOn), tel
}

func do(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	out := map[string]any{}
	if strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, w.Body.String())
		}
	}
	return w, out
}

func errKind(t *testing.T, out map[string]any) string {
	t.Helper()
	e, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("no structured error in %v", out)
	}
	kind, _ := e["kind"].(string)
	return kind
}

// TestDaemonCompileRunReport walks the primary flow over HTTP: compile
// jacobi, verify the listing is byte-identical to a direct library
// compile, run it by id, and fetch the HTML report.
func TestDaemonCompileRunReport(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	src := fortd.Jacobi1DSrc(64, 4, 4)

	w, out := do(t, h, "POST", "/compile", map[string]any{"session": "t", "source": src})
	if w.Code != http.StatusOK {
		t.Fatalf("compile status %d: %s", w.Code, w.Body.String())
	}
	id, _ := out["id"].(string)
	listing, _ := out["listing"].(string)
	if id == "" || listing == "" {
		t.Fatalf("compile response missing id/listing: %v", out)
	}
	direct, err := fortd.Compile(src, fortd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if listing != direct.Listing() {
		t.Fatal("daemon listing differs from direct library compile")
	}

	w, out = do(t, h, "POST", "/run", map[string]any{
		"session": "t", "id": id,
		"init": map[string][]float64{"a": fortd.Ramp(64)},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("run status %d: %s", w.Code, w.Body.String())
	}
	stats, _ := out["stats"].(map[string]any)
	if stats == nil || stats["time"].(float64) <= 0 {
		t.Fatalf("run response missing stats: %v", out)
	}

	w, _ = do(t, h, "GET", "/report/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("report content type %q", ct)
	}
	if !strings.Contains(w.Body.String(), "<html") {
		t.Fatal("report is not an HTML document")
	}
}

// TestReportAdmitted: GET /report/{id} is one more Service request. A
// session past its burst gets 429 for a report as for a compile, and a
// report counts as exactly one run in /stats and /metrics.
func TestReportAdmitted(t *testing.T) {
	src := fortd.Jacobi1DSrc(64, 4, 4)
	h := newTestHandler(t, fortd.ServiceConfig{RateLimit: 0.001, RateBurst: 1})
	w, out := do(t, h, "POST", "/compile", map[string]any{"source": src})
	if w.Code != http.StatusOK {
		t.Fatalf("compile status %d: %s", w.Code, w.Body.String())
	}
	id, _ := out["id"].(string)
	if w, out := do(t, h, "GET", "/report/"+id, nil); w.Code != http.StatusTooManyRequests || errKind(t, out) != "rate-limit" {
		t.Fatalf("report past the burst -> %d %v, want 429 rate-limit", w.Code, out)
	}

	h = newTestHandler(t, fortd.ServiceConfig{})
	_, out = do(t, h, "POST", "/compile", map[string]any{"source": src})
	id, _ = out["id"].(string)
	if w, _ := do(t, h, "GET", "/report/"+id, nil); w.Code != http.StatusOK {
		t.Fatalf("report status %d: %s", w.Code, w.Body.String())
	}
	_, out = do(t, h, "GET", "/stats", nil)
	if runs := out["service"].(map[string]any)["runs"]; runs != 1.0 {
		t.Errorf("stats runs = %v after one report, want 1", runs)
	}
	if got := scrape(t, h).Value("fdd_runs_total", "outcome", "ok"); got != 1 {
		t.Errorf("fdd_runs_total{outcome=\"ok\"} = %v after one report, want 1", got)
	}
}

// TestDaemonErrors pins the structured error mapping: parse errors are
// 400 with positions, unknown ids 404, rate limiting 429, explicit
// kinds throughout.
func TestDaemonErrors(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})

	w, out := do(t, h, "POST", "/compile", map[string]any{"source": "PROGRAM ("})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("parse error status %d, want 400", w.Code)
	}
	if k := errKind(t, out); k != "parse" && k != "invalid" {
		t.Fatalf("parse error kind %q", k)
	}
	msg := out["error"].(map[string]any)["message"].(string)
	if !strings.Contains(msg, "line") {
		t.Fatalf("parse error lost its position: %q", msg)
	}

	w, out = do(t, h, "POST", "/run", map[string]any{"id": "no-such-id"})
	if w.Code != http.StatusNotFound || errKind(t, out) != "unknown-program" {
		t.Fatalf("unknown id -> %d %v", w.Code, out)
	}

	w, out = do(t, h, "GET", "/report/no-such-id", nil)
	if w.Code != http.StatusNotFound || errKind(t, out) != "unknown-program" {
		t.Fatalf("unknown report -> %d %v", w.Code, out)
	}

	w, out = do(t, h, "POST", "/compile", map[string]any{
		"source":  fortd.Fig1Src(32, 4),
		"options": map[string]any{"strategy": "bogus"},
	})
	if w.Code != http.StatusBadRequest || errKind(t, out) != "invalid" {
		t.Fatalf("bad strategy -> %d %v", w.Code, out)
	}
}

// TestDaemonBodyLimit: a POST body one byte over maxBodyBytes is 413
// on both routes that decode one, before anything is compiled, and the
// daemon serves the next request.
func TestDaemonBodyLimit(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	head, tail := `{"source":"x","pad":"`, `"}`
	body := append([]byte(head), bytes.Repeat([]byte("a"), maxBodyBytes+1-len(head)-len(tail))...)
	body = append(body, tail...)
	for _, path := range []string{"/compile", "/run"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		var out map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if w.Code != http.StatusRequestEntityTooLarge || errKind(t, out) != "too-large" {
			t.Fatalf("%s with a %d-byte body -> %d %v, want 413 too-large", path, len(body), w.Code, out)
		}
	}
	if w, _ := do(t, h, "POST", "/compile", map[string]any{"source": fortd.Fig1Src(32, 4)}); w.Code != http.StatusOK {
		t.Fatalf("compile after the oversized bodies -> %d: %s", w.Code, w.Body.String())
	}
}

// TestDaemonRunFailureIs422: a program that is well-formed but fails
// when it runs — here an intrinsic call that used to panic a node
// goroutine and kill the daemon — is 422 with kind "run", at any P, and
// the daemon serves the next request.
func TestDaemonRunFailureIs422(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	for _, p := range []int{1, 4} {
		src := strings.Replace(`
      PROGRAM P
      PARAMETER (n$proc = NP)
      REAL x(8)
      x(1) = MOD(5, 0.5) + MAX()
      END
`, "NP", string(rune('0'+p)), 1)
		w, out := do(t, h, "POST", "/run", map[string]any{"session": "t", "source": src})
		if w.Code != http.StatusUnprocessableEntity || errKind(t, out) != "run" {
			t.Fatalf("P=%d: crasher run -> %d %v, want 422 run", p, w.Code, out)
		}
		msg := out["error"].(map[string]any)["message"].(string)
		if !strings.Contains(msg, ": P:5: MOD by zero") {
			t.Errorf("P=%d: message %q does not name processor, procedure and line", p, msg)
		}
	}
	w, _ := do(t, h, "POST", "/run", map[string]any{"session": "t", "source": fortd.Jacobi1DSrc(32, 2, 4)})
	if w.Code != http.StatusOK {
		t.Fatalf("run after the crashers -> %d: %s", w.Code, w.Body.String())
	}
}

// TestDaemonInitLengthIs422: an init array that does not have one value
// per element used to seed a prefix of the array (or drop its tail)
// without a word; it is a 422 of kind "run", reported once, whatever P.
func TestDaemonInitLengthIs422(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	src := fortd.Jacobi1DSrc(64, 2, 4)
	for _, n := range []int{3, 65} {
		w, out := do(t, h, "POST", "/run", map[string]any{
			"session": "t", "source": src, "init": map[string][]float64{"a": fortd.Ramp(n)},
		})
		if w.Code != http.StatusUnprocessableEntity || errKind(t, out) != "run" {
			t.Fatalf("%d values for a(64) -> %d %v, want 422 run", n, w.Code, out)
		}
		want := fmt.Sprintf("init a: %d values for 64 elements", n)
		if msg := out["error"].(map[string]any)["message"].(string); msg != want {
			t.Errorf("message %q, want %q", msg, want)
		}
	}
	w, _ := do(t, h, "POST", "/run", map[string]any{
		"session": "t", "source": src, "init": map[string][]float64{"a": fortd.Ramp(64), "nosuch": {1}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("well-formed init -> %d: %s", w.Code, w.Body.String())
	}
}

// TestDaemonRateLimit exhausts a session's bucket over HTTP and
// verifies the 429 with kind rate-limit, plus the /stats counter.
func TestDaemonRateLimit(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{RateLimit: 0.001, RateBurst: 1})
	src := fortd.Fig1Src(32, 4)

	w, _ := do(t, h, "POST", "/compile", map[string]any{"session": "greedy", "source": src})
	if w.Code != http.StatusOK {
		t.Fatalf("first request status %d: %s", w.Code, w.Body.String())
	}
	w, out := do(t, h, "POST", "/compile", map[string]any{"session": "greedy", "source": src})
	if w.Code != http.StatusTooManyRequests || errKind(t, out) != "rate-limit" {
		t.Fatalf("second request -> %d %v", w.Code, out)
	}

	w, out = do(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	svc, _ := out["service"].(map[string]any)
	if svc == nil || svc["rateLimited"].(float64) != 1 {
		t.Fatalf("stats did not count the 429: %v", out)
	}
	cache, _ := out["cache"].(map[string]any)
	if cache == nil || cache["misses"].(float64) == 0 {
		t.Fatalf("stats missing cache counters: %v", out)
	}
}

// TestDaemonHealthz pins the liveness endpoint.
func TestDaemonHealthz(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	w, out := do(t, h, "GET", "/healthz", nil)
	if w.Code != http.StatusOK || out["ok"] != true {
		t.Fatalf("healthz -> %d %v", w.Code, out)
	}
}

// scraped is one parsed /metrics rendering: the families its TYPE
// lines declare, and its samples (a histogram's as _bucket, _sum and
// _count lines).
type scraped struct {
	families map[string]string // name -> type
	samples  []sample
}

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// Value sums the samples named name that carry every label pair.
func (s *scraped) Value(name string, labelPairs ...string) float64 {
	var sum float64
next:
	for _, sm := range s.samples {
		if sm.name != name {
			continue
		}
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if sm.labels[labelPairs[i]] != labelPairs[i+1] {
				continue next
			}
		}
		sum += sm.value
	}
	return sum
}

// scrape fetches and parses the daemon's /metrics rendering. The
// daemon's label values hold no comma, quote or newline, so a line
// splits at its first '{', its commas and its last space.
func scrape(t *testing.T, h http.Handler) *scraped {
	t.Helper()
	w, _ := do(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	snap := &scraped{families: map[string]string{}}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			snap.families[f[2]] = f[3]
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		sm := sample{labels: map[string]string{}, value: v}
		name, labels, _ := strings.Cut(line[:sp], "{")
		sm.name = name
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, v, ok := strings.Cut(kv, "="); ok {
				sm.labels[k] = strings.Trim(v, `"`)
			}
		}
		snap.samples = append(snap.samples, sm)
	}
	return snap
}

// TestDaemonMetricsEndpoint drives compile (twice, for a cache hit)
// and run traffic, then checks /metrics covers the service, cache,
// pool and HTTP layers with consistent counts.
func TestDaemonMetricsEndpoint(t *testing.T) {
	h, _ := newTestServer(t, fortd.ServiceConfig{}, false)
	src := fortd.Jacobi1DSrc(64, 4, 4)

	for i := 0; i < 2; i++ {
		if w, _ := do(t, h, "POST", "/compile", map[string]any{"session": "m", "source": src}); w.Code != http.StatusOK {
			t.Fatalf("compile %d status %d", i, w.Code)
		}
	}
	if w, _ := do(t, h, "POST", "/run", map[string]any{"session": "m", "source": src, "init": map[string][]float64{"a": fortd.Ramp(64)}}); w.Code != http.StatusOK {
		t.Fatalf("run status %d", w.Code)
	}
	do(t, h, "POST", "/compile", map[string]any{"session": "m", "source": "PROGRAM ("}) // a 400, for the status labels

	snap := scrape(t, h)
	for _, fam := range []string{
		"fdd_compiles_total", "fdd_runs_total", "fdd_rejected_total",
		"fdd_compile_seconds", "fdd_run_seconds",
		"fdd_queue_depth", "fdd_pool_inflight", "fdd_pool_workers", "fdd_pool_saturation",
		"fdd_cache_hits_total", "fdd_cache_misses_total", "fdd_cache_entries",
		"fdd_http_requests_total", "fdd_http_request_seconds",
		"fdd_process_uptime_seconds", "fdd_process_goroutines", "fdd_ready",
	} {
		if _, ok := snap.families[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if got := snap.Value("fdd_compiles_total", "outcome", "ok"); got != 2 {
		t.Errorf("compiles ok = %v, want 2", got)
	}
	if got := snap.Value("fdd_compiles_total", "outcome", "error"); got != 1 {
		t.Errorf("compiles error = %v, want 1", got)
	}
	// The run carried inline source: one run request, not a compile.
	if got := snap.Value("fdd_runs_total", "outcome", "ok"); got != 1 {
		t.Errorf("runs ok = %v, want 1", got)
	}
	if hits := snap.Value("fdd_cache_hits_total", "tier", "memory"); hits == 0 {
		t.Error("warm recompile produced no memory-tier cache hits")
	}
	// Latency histograms count one observation per service request.
	if c, n := snap.Value("fdd_compile_seconds_count"), snap.Value("fdd_compiles_total"); c != n {
		t.Errorf("compile histogram count %v != compiles_total %v", c, n)
	}
	if c, n := snap.Value("fdd_run_seconds_count"), snap.Value("fdd_runs_total"); c != n {
		t.Errorf("run histogram count %v != runs_total %v", c, n)
	}
	// HTTP layer: 3 ok + 1 parse failure on /compile.
	if got := snap.Value("fdd_http_requests_total", "route", "/compile", "method", "POST", "status", "200"); got != 2 {
		t.Errorf("http /compile 200 = %v, want 2", got)
	}
	if got := snap.Value("fdd_http_requests_total", "route", "/compile", "status", "400"); got != 1 {
		t.Errorf("http /compile 400 = %v, want 1", got)
	}
	if c, n := snap.Value("fdd_http_request_seconds_count", "route", "/compile"), snap.Value("fdd_http_requests_total", "route", "/compile"); c != n {
		t.Errorf("http histogram count %v != requests %v", c, n)
	}
}

// TestDaemonStatsMetricsAgree cross-checks /stats against /metrics:
// the two views are fed by the same live state and the same request
// counters, so the stable numbers must match exactly.
func TestDaemonStatsMetricsAgree(t *testing.T) {
	h, _ := newTestServer(t, fortd.ServiceConfig{Workers: 3}, false)
	src := fortd.Jacobi1DSrc(64, 4, 4)
	for i := 0; i < 2; i++ {
		if w, _ := do(t, h, "POST", "/compile", map[string]any{"session": "x", "source": src}); w.Code != http.StatusOK {
			t.Fatalf("compile status %d", w.Code)
		}
	}
	// inline source: one run, and no compile in either view
	if w, _ := do(t, h, "POST", "/run", map[string]any{"session": "x", "source": src, "init": map[string][]float64{"a": fortd.Ramp(64)}}); w.Code != http.StatusOK {
		t.Fatalf("run status %d", w.Code)
	}

	w, out := do(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d", w.Code)
	}
	snap := scrape(t, h)
	svc := out["service"].(map[string]any)
	cache := out["cache"].(map[string]any)
	proc := out["process"].(map[string]any)
	for _, tc := range []struct {
		stats  float64
		metric float64
		name   string
	}{
		{svc["compiles"].(float64), snap.Value("fdd_compiles_total"), "compiles"},
		{svc["runs"].(float64), snap.Value("fdd_runs_total"), "runs"},
		{svc["queued"].(float64), snap.Value("fdd_queue_depth"), "queue depth"},
		{svc["queueDepth"].(float64), snap.Value("fdd_queue_limit"), "queue limit"},
		{svc["inFlight"].(float64), snap.Value("fdd_pool_inflight"), "inflight"},
		{svc["workers"].(float64), snap.Value("fdd_pool_workers"), "workers"},
		{svc["sessions"].(float64), snap.Value("fdd_sessions"), "sessions"},
		{svc["programs"].(float64), snap.Value("fdd_programs"), "programs"},
		{cache["hits"].(float64), snap.Value("fdd_cache_hits_total"), "cache hits (memory+disk)"},
		{cache["misses"].(float64), snap.Value("fdd_cache_misses_total"), "cache misses"},
		{cache["entries"].(float64), snap.Value("fdd_cache_entries", "tier", "memory"), "cache entries"},
	} {
		if tc.stats != tc.metric {
			t.Errorf("%s: /stats says %v, /metrics says %v", tc.name, tc.stats, tc.metric)
		}
	}
	if proc["uptimeSeconds"].(float64) <= 0 || snap.Value("fdd_process_uptime_seconds") <= 0 {
		t.Error("uptime not positive in both views")
	}
	if proc["goroutines"].(float64) <= 0 || snap.Value("fdd_process_goroutines") <= 0 {
		t.Error("goroutine count not positive in both views")
	}
}

// TestDaemonRetryAfterAndRequestID pins the 429 contract: an honest
// Retry-After from the token-bucket refill, and the request id in the
// response header and the structured error detail (propagated when
// the client sent one, generated otherwise).
func TestDaemonRetryAfterAndRequestID(t *testing.T) {
	h, _ := newTestServer(t, fortd.ServiceConfig{RateLimit: 0.5, RateBurst: 1}, false)
	src := fortd.Fig1Src(32, 4)

	if w, _ := do(t, h, "POST", "/compile", map[string]any{"session": "g", "source": src}); w.Code != http.StatusOK {
		t.Fatalf("first request status %d", w.Code)
	}
	req := httptest.NewRequest("POST", "/compile", strings.NewReader(`{"session":"g","source":"x"}`))
	req.Header.Set("X-Request-ID", "trace-me-1234")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", w.Code)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 missing Retry-After")
	}
	// 0.5 req/s means a fresh token takes ~2s: Retry-After in [1, 3].
	if ra != "1" && ra != "2" && ra != "3" {
		t.Errorf("Retry-After = %q, want ~2s for a 0.5 req/s bucket", ra)
	}
	if got := w.Header().Get("X-Request-ID"); got != "trace-me-1234" {
		t.Errorf("X-Request-ID = %q, not propagated", got)
	}
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	detail := out["error"].(map[string]any)["detail"].(map[string]any)
	if detail["requestId"] != "trace-me-1234" {
		t.Errorf("error detail requestId = %v", detail["requestId"])
	}
	if detail["retryAfterSeconds"].(float64) <= 0 {
		t.Errorf("error detail retryAfterSeconds = %v", detail["retryAfterSeconds"])
	}

	// Without a client-supplied id the daemon generates one, and every
	// error detail carries it.
	w2, out2 := do(t, h, "POST", "/run", map[string]any{"id": "no-such-id"})
	if id := w2.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars", id)
	}
	detail2 := out2["error"].(map[string]any)["detail"].(map[string]any)
	if detail2["requestId"] != w2.Header().Get("X-Request-ID") {
		t.Errorf("error detail requestId %v != header %q", detail2["requestId"], w2.Header().Get("X-Request-ID"))
	}
}

// TestDaemonReadyzDrain pins the probe split: /livez stays 200 while
// /readyz flips to 503 once draining begins (and fdd_ready tracks it).
func TestDaemonReadyzDrain(t *testing.T) {
	h, tel := newTestServer(t, fortd.ServiceConfig{}, false)
	if w, out := do(t, h, "GET", "/readyz", nil); w.Code != http.StatusOK || out["ready"] != true {
		t.Fatalf("readyz -> %d %v", w.Code, out)
	}
	if snap := scrape(t, h); snap.Value("fdd_ready") != 1 {
		t.Error("fdd_ready != 1 while serving")
	}
	tel.ready.Store(false)
	if w, out := do(t, h, "GET", "/readyz", nil); w.Code != http.StatusServiceUnavailable || out["ready"] != false {
		t.Fatalf("draining readyz -> %d %v", w.Code, out)
	}
	if w, _ := do(t, h, "GET", "/livez", nil); w.Code != http.StatusOK {
		t.Fatalf("livez during drain -> %d, want 200", w.Code)
	}
	if snap := scrape(t, h); snap.Value("fdd_ready") != 0 {
		t.Error("fdd_ready != 0 while draining")
	}
}

// TestDaemonPprofGate pins that the profiling surface is opt-in.
func TestDaemonPprofGate(t *testing.T) {
	off, _ := newTestServer(t, fortd.ServiceConfig{}, false)
	if w, _ := do(t, off, "GET", "/debug/pprof/", nil); w.Code != http.StatusNotFound {
		t.Errorf("pprof without -pprof -> %d, want 404", w.Code)
	}
	on, _ := newTestServer(t, fortd.ServiceConfig{}, true)
	if w, _ := do(t, on, "GET", "/debug/pprof/", nil); w.Code != http.StatusOK {
		t.Errorf("pprof with -pprof -> %d, want 200", w.Code)
	}
}

// TestDaemonOptionOverlay verifies pointer-field DTO defaulting: an
// omitted option inherits the server's base, a present one overrides.
func TestDaemonOptionOverlay(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{})
	src := fortd.Jacobi1DSrc(64, 2, 8) // n$proc = 8 in the source

	// Base options leave P=0 (read n$proc): expect 8.
	w, out := do(t, h, "POST", "/compile", map[string]any{"source": src})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if p := out["p"].(float64); p != 8 {
		t.Fatalf("default compile p = %v, want 8 from n$proc", p)
	}
	// Explicit override wins.
	w, out = do(t, h, "POST", "/compile", map[string]any{
		"source": src, "options": map[string]any{"p": 4},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if p := out["p"].(float64); p != 4 {
		t.Fatalf("override compile p = %v, want 4", p)
	}
}

// TestDaemonProfileRoundTrip drives the profile surface end to end:
// POST /run?profile=true returns a profileId, GET /profile/{id} serves
// the canonical artifact bytes, GET /profiles lists it (with the
// ?program= filter), and a handler over a fresh Service sharing the
// same ProfileDir (a daemon restart) still serves the artifact.
func TestDaemonProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := newTestHandler(t, fortd.ServiceConfig{ProfileDir: dir})
	src := fortd.Jacobi1DSrc(64, 2, 4)
	init := map[string][]float64{"a": fortd.Ramp(64)}

	w, out := do(t, h, "POST", "/run?profile=true", map[string]any{
		"session": "t", "source": src, "init": init, "workload": "jacobi1d",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("run status %d: %s", w.Code, w.Body.String())
	}
	profileID, _ := out["profileId"].(string)
	if len(profileID) != 64 {
		t.Fatalf("run response profileId = %q, want 64-hex id", profileID)
	}
	programID, _ := out["id"].(string)

	// a run without the flag must not attach a profile
	w, out = do(t, h, "POST", "/run", map[string]any{"session": "t", "source": src, "init": init})
	if w.Code != http.StatusOK {
		t.Fatalf("plain run status %d", w.Code)
	}
	if id, ok := out["profileId"]; ok {
		t.Errorf("unprofiled run returned profileId %v", id)
	}

	w, out = do(t, h, "GET", "/profile/"+profileID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("profile fetch status %d: %s", w.Code, w.Body.String())
	}
	if s, _ := out["schema"].(float64); s != 1 {
		t.Errorf("artifact schema = %v, want 1", out["schema"])
	}
	meta, _ := out["meta"].(map[string]any)
	if meta == nil || meta["workload"] != "jacobi1d" || meta["program_hash"] != programID {
		t.Errorf("artifact meta = %v", meta)
	}
	body := w.Body.String()

	w, _ = do(t, h, "GET", "/profiles", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), profileID) {
		t.Errorf("profile list (%d) lacks %s: %s", w.Code, profileID, w.Body.String())
	}
	w, _ = do(t, h, "GET", "/profiles?program="+programID, nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), profileID) {
		t.Errorf("filtered profile list lacks %s", profileID)
	}
	w, _ = do(t, h, "GET", "/profiles?program=feedfacefeedface", nil)
	if w.Code != http.StatusOK || strings.Contains(w.Body.String(), profileID) {
		t.Errorf("mismatched program filter still lists %s", profileID)
	}

	w, out = do(t, h, "GET", "/profile/"+strings.Repeat("0", 64), nil)
	if w.Code != http.StatusNotFound || errKind(t, out) != "unknown-profile" {
		t.Errorf("unknown profile -> %d %v", w.Code, out)
	}

	// restart: a fresh handler over the same directory serves identical bytes
	h2 := newTestHandler(t, fortd.ServiceConfig{ProfileDir: dir})
	w, _ = do(t, h2, "GET", "/profile/"+profileID, nil)
	if w.Code != http.StatusOK || w.Body.String() != body {
		t.Errorf("restarted daemon serves different artifact (status %d)", w.Code)
	}
}

// The load test's program: one main program calling two independent
// stencil sweeps. Editing sweepa's coefficient changes only its own
// body hash (same communication summary, so MAIN's consumed inputs are
// unchanged); editing the shift distance changes sweepa's delayed
// communication, which MAIN consumes, so MAIN is invalidated with it.
// sweepb is untouched by every variant and must never be re-analyzed
// after the priming compile.
func loadSrc(coef string, shift int) string {
	return fmt.Sprintf(`
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      call sweepa(a)
      call sweepb(b)
      END
      SUBROUTINE sweepa(x)
      REAL x(64)
      do i = %d, 63
        x(i) = %s * x(i-%d) + 1.0
      enddo
      END
      SUBROUTINE sweepb(x)
      REAL x(64)
      do i = 2, 63
        x(i) = 0.5 * x(i+1) + 1.0
      enddo
      END
`, shift+1, coef, shift)
}

// The load test's sizes. The pool and the token bucket are small so
// that the rejection paths are part of the load: the sessions start
// against a full pool, and one session outruns its bucket.
const (
	loadSessions = 64 // concurrent sessions (16 under -short)
	loadIters    = 4  // requests per session: one of each kind of the mix
	loadRetries  = 60 // times one request is retried on 429/503 before it counts as dropped
	loadWorkers  = 2
	loadQueue    = 2
	loadRate     = 10 // tokens per second and session
	loadBurst    = 8
)

// loadClient is the daemon's client under TestDaemonLoad: it posts
// through the handler stack and holds what must be equal across
// sessions.
type loadClient struct {
	t *testing.T
	h http.Handler

	n429, n503 atomic.Int64 // throttle responses seen (each is retried)

	mu       sync.Mutex
	listings map[string]string // program id -> SPMD listing
	stats    map[string]string // program id -> run statistics summary
	profiles map[string]string // program id -> profile artifact id
}

// same records val as what kind of result program id produces, and
// fails when an earlier request got a different one.
func (c *loadClient) same(kind string, m map[string]string, id, val string) {
	c.mu.Lock()
	prev, seen := m[id]
	if !seen {
		m[id] = val
	}
	c.mu.Unlock()
	if seen && prev != val {
		c.t.Errorf("%s of program %.12s differs between requests:\n%s\n---\n%s", kind, id, prev, val)
	}
}

// post sends one JSON request and decodes its 200 into resp. A 429 or
// 503 — the daemon's rate-limit and queue-full fast failures — must
// say what it is, and is retried with capped exponential backoff the
// way a production client would; any other status fails the test.
func (c *loadClient) post(path string, body map[string]any, resp any) bool {
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Error(err)
		return false
	}
	backoff := time.Millisecond
	for attempt := 0; attempt <= loadRetries; attempt++ {
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
		switch w.Code {
		case http.StatusOK:
			if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
				c.t.Errorf("%s: bad JSON: %v\n%s", path, err, w.Body.String())
				return false
			}
			return true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			kind, seen := "overloaded", &c.n503
			if w.Code == http.StatusTooManyRequests {
				kind, seen = "rate-limit", &c.n429
				if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs < 1 {
					c.t.Errorf("429 without a Retry-After in whole seconds: %q", w.Header().Get("Retry-After"))
				}
			}
			seen.Add(1)
			var e struct {
				Error struct{ Kind string }
			}
			if json.Unmarshal(w.Body.Bytes(), &e); e.Error.Kind != kind {
				c.t.Errorf("%d of kind %q, want %s", w.Code, e.Error.Kind, kind)
			}
		default:
			c.t.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
			return false
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 64*time.Millisecond)
	}
	c.t.Errorf("%s: dropped after %d throttle responses", path, loadRetries+1)
	return false
}

// compile posts one compile of source and checks the response against
// the other sessions' and against the edit's §8 invalidation cone.
func (c *loadClient) compile(session, label, source string, cone ...string) (id string) {
	var resp struct {
		ID, Listing string
		CacheMisses []string
	}
	if !c.post("/compile", map[string]any{"session": session, "source": source}, &resp) {
		return ""
	}
	c.same("listing", c.listings, resp.ID, resp.Listing)
	for _, proc := range resp.CacheMisses {
		if !slices.Contains(cone, proc) {
			c.t.Errorf("%s compile re-analyzed %s, outside its invalidation cone %v", label, proc, cone)
		}
	}
	return resp.ID
}

// session runs one session's mix: (id+it) mod 4 picks a warm
// recompile, a body edit, an interface edit or a profiled run of the
// base program (by id once the session has compiled it).
func (c *loadClient) session(id int) {
	sess := fmt.Sprintf("s%04d", id)
	baseID := ""
	for it := 0; it < loadIters; it++ {
		switch (id + it) % 4 {
		case 0:
			baseID = c.compile(sess, "warm", loadSrc("0.5", 1))
		case 1:
			c.compile(sess, "body-edit", loadSrc("0.25", 1), "sweepa")
		case 2:
			c.compile(sess, "interface-edit", loadSrc("0.5", 2), "sweepa", "MAIN")
		case 3:
			req := map[string]any{
				"session": sess, "profile": true,
				"init": map[string][]float64{"a": fortd.Ramp(64), "b": fortd.Ramp(64)},
			}
			if baseID != "" {
				req["id"] = baseID
			} else {
				req["source"] = loadSrc("0.5", 1)
			}
			var resp struct {
				ID, ProfileID string
				Stats         struct{ Summary string }
			}
			if !c.post("/run", req, &resp) {
				continue
			}
			c.same("run statistics", c.stats, resp.ID, resp.Stats.Summary)
			if resp.ProfileID == "" {
				c.t.Errorf("profiled run of program %.12s returned no profileId", resp.ID)
			} else {
				c.same("profile id", c.profiles, resp.ID, resp.ProfileID)
			}
		}
	}
}

// TestDaemonLoad holds the daemon to its contracts under concurrency.
// Determinism: every listing returned for one program id is
// byte-identical across sessions, every run of one id reports the same
// statistics and stores the same profile artifact. Invalidation (§8 as
// a cache predicate): after the priming compile a warm recompile is all
// hits, a body edit re-analyzes at most the edited procedure, an
// interface edit at most that and its caller. Throttling: every 429
// and 503 says what it is and the request succeeds when retried. And
// /metrics accounts for all of it: each request is in exactly one
// outcome or rejection counter, in its latency histogram, and under the
// HTTP status its rejection maps to.
func TestDaemonLoad(t *testing.T) {
	h := newTestHandler(t, fortd.ServiceConfig{
		Workers: loadWorkers, QueueDepth: loadQueue, RateLimit: loadRate, RateBurst: loadBurst,
	})
	c := &loadClient{t: t, h: h, listings: map[string]string{}, stats: map[string]string{}, profiles: map[string]string{}}

	// Prime the cache with the base program from a session of its own,
	// so that every edit's cone is measured against a warm sweepb.
	c.compile("prime", "priming", loadSrc("0.5", 1), "MAIN", "sweepa", "sweepb")

	// One session outruns its token bucket: back to back it drains the
	// burst far faster than loadRate refills it.
	for i := 0; i < 10*loadBurst && c.n429.Load() == 0; i++ {
		c.compile("greedy", "warm", loadSrc("0.5", 1))
	}
	if c.n429.Load() == 0 {
		t.Errorf("%d back-to-back requests of one session never met its rate limit", 10*loadBurst)
	}

	// Fill the pool — every worker busy, the queue full — with runs
	// that outlast the test unless their client goes away, and start the
	// sessions against it: their first requests are 503s.
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	plug, err := json.Marshal(map[string]any{"source": fortd.Jacobi1DSrc(4096, 1<<20, 4)})
	if err != nil {
		t.Fatal(err)
	}
	var plugs, sessions sync.WaitGroup
	for i := 0; i < loadWorkers+loadQueue; i++ {
		plugs.Add(1)
		go func() {
			defer plugs.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/run", bytes.NewReader(plug)).WithContext(ctx))
			if w.Code != 499 {
				t.Errorf("run whose client hung up: status %d, want 499: %s", w.Code, w.Body.String())
			}
		}()
	}
	waitFor(t, "a full pool", func() bool {
		_, out := do(t, h, "GET", "/stats", nil)
		svc := out["service"].(map[string]any)
		return svc["inFlight"].(float64) == loadWorkers && svc["queued"].(float64) == loadQueue
	})
	n := loadSessions
	if testing.Short() {
		n = loadSessions / 4
	}
	for id := 0; id < n; id++ {
		sessions.Add(1)
		go func(id int) {
			defer sessions.Done()
			c.session(id)
		}(id)
	}
	waitFor(t, "a 503 from the full pool", func() bool { return c.n503.Load() > 0 })
	hangUp()
	plugs.Wait()
	sessions.Wait()
	t.Logf("%d sessions x %d requests over %d programs; %d 429s and %d 503s retried",
		n, loadIters, len(c.listings), c.n429.Load(), c.n503.Load())

	// ServeHTTP returns after the middleware's bookkeeping, so one
	// scrape after the last response sees every counter settled.
	snap := scrape(t, h)
	for _, fam := range []string{
		"fdd_compiles_total", "fdd_runs_total", "fdd_rejected_total",
		"fdd_compile_seconds", "fdd_run_seconds",
		"fdd_run_blocked_share", "fdd_profiles_stored_total",
		"fdd_cache_hits_total", "fdd_cache_misses_total",
		"fdd_queue_depth", "fdd_pool_inflight", "fdd_pool_saturation",
		"fdd_http_requests_total", "fdd_http_request_seconds",
	} {
		if _, ok := snap.families[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	compiles, runs, rejected := snap.Value("fdd_compiles_total"), snap.Value("fdd_runs_total"), snap.Value("fdd_rejected_total")
	if got := snap.Value("fdd_compile_seconds_count"); got != compiles {
		t.Errorf("fdd_compile_seconds_count %v != sum fdd_compiles_total %v", got, compiles)
	}
	if got := snap.Value("fdd_run_seconds_count"); got != runs {
		t.Errorf("fdd_run_seconds_count %v != sum fdd_runs_total %v", got, runs)
	}
	if got, stored := snap.Value("fdd_run_blocked_share_count"), snap.Value("fdd_profiles_stored_total"); got != stored || stored == 0 {
		t.Errorf("fdd_run_blocked_share_count %v != fdd_profiles_stored_total %v, or no profile stored", got, stored)
	}
	requests := 0.0
	for _, route := range []string{"/compile", "/run"} {
		n, hist := snap.Value("fdd_http_requests_total", "route", route), snap.Value("fdd_http_request_seconds_count", "route", route)
		if n != hist {
			t.Errorf("route %s: fdd_http_requests_total %v != fdd_http_request_seconds_count %v", route, n, hist)
		}
		requests += n
	}
	if requests != compiles+runs+rejected {
		t.Errorf("requests %v != outcomes + rejections %v (compiles %v + runs %v + rejected %v)",
			requests, compiles+runs+rejected, compiles, runs, rejected)
	}
	for _, status := range []struct {
		code    string
		seen    int64
		reasons []string
	}{
		{"429", c.n429.Load(), []string{"rate-limit"}},
		{"503", c.n503.Load(), []string{"overload", "closed"}},
	} {
		responses, rejections := snap.Value("fdd_http_requests_total", "status", status.code), 0.0
		for _, reason := range status.reasons {
			rejections += snap.Value("fdd_rejected_total", "reason", reason)
		}
		if responses != rejections || responses != float64(status.seen) || status.seen == 0 {
			t.Errorf("HTTP %ss %v, %v rejections %v, %ss the sessions saw %d: want equal and >= 1",
				status.code, responses, status.reasons, rejections, status.code, status.seen)
		}
	}
}

// waitFor polls cond for up to 10s; the deadline only trips when the
// surrounding machinery has stalled.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 10s", what)
		}
	}
}

// TestDaemonReportHonoursDeadlines: GET /report/{id} recompiles and
// runs the program, so it must stop where /run stops: at the service's
// run deadline, and when the client goes away. The program it asks for
// runs two billion iterations, so a report that ignores both never
// returns.
func TestDaemonReportHonoursDeadlines(t *testing.T) {
	const spin = `
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL x(8)
      DISTRIBUTE x(BLOCK)
      s = 0.0
      do i = 1, 2000000000
        s = s + 1.0
      enddo
      x(1) = s
      END
`
	for _, tc := range []struct {
		name   string
		cfg    fortd.ServiceConfig
		cancel bool
		want   int
	}{
		{"run deadline", fortd.ServiceConfig{RunDeadline: time.Millisecond, Options: fortd.Options{Deadline: time.Minute}}, false, http.StatusUnprocessableEntity},
		{"client gone", fortd.ServiceConfig{}, true, 499},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestHandler(t, tc.cfg)
			w, out := do(t, h, "POST", "/compile", map[string]any{"session": "t", "source": spin})
			if w.Code != http.StatusOK {
				t.Fatalf("compile status %d: %s", w.Code, w.Body.String())
			}
			id, _ := out["id"].(string)
			req := httptest.NewRequest("GET", "/report/"+id, nil)
			if tc.cancel {
				ctx, cancel := context.WithCancel(req.Context())
				cancel()
				req = req.WithContext(ctx)
			}
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				done <- w
			}()
			select {
			case w := <-done:
				if w.Code != tc.want {
					t.Errorf("report status %d, want %d: %s", w.Code, tc.want, w.Body.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("GET /report did not return within 10 s")
			}
		})
	}
}
