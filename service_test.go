package fortd

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestServiceCompileRun drives the basic session flow: compile, run by
// the returned id, and verify the result matches a direct library run.
func TestServiceCompileRun(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	src := Jacobi1DSrc(64, 4, 4)
	init := map[string][]float64{"a": Ramp(64), "b": make([]float64, 64)}

	res, err := svc.Compile(context.Background(), CompileRequest{Session: "s1", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID == "" || res.Listing == "" {
		t.Fatalf("empty id or listing: %+v", res)
	}
	if len(res.CacheMisses) == 0 {
		t.Fatalf("cold compile reported no cache misses")
	}

	out, err := svc.Run(context.Background(), RunRequest{Session: "s1", ID: res.ID, Init: init})
	if err != nil {
		t.Fatal(err)
	}

	direct, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Listing() != res.Listing {
		t.Fatalf("service listing differs from direct compile")
	}
	want, err := NewRunner(WithInit(init)).Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Stats.Time != want.Stats.Time ||
		out.Result.Stats.Messages != want.Stats.Messages ||
		out.Result.Stats.Words != want.Stats.Words {
		t.Fatalf("service run stats %v != direct run stats %v", out.Result.Stats, want.Stats)
	}
	for name, vals := range want.Arrays {
		got := out.Result.Arrays[name]
		if len(got) != len(vals) {
			t.Fatalf("array %s: %d elements, want %d", name, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("array %s[%d] = %v, want %v", name, i, got[i], vals[i])
			}
		}
	}

	// run with inline source (no id) compiles warm through the shared cache
	out2, err := svc.Run(context.Background(), RunRequest{Session: "s1", Source: src, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if out2.ID != res.ID {
		t.Fatalf("inline-source run id %s != compile id %s", out2.ID, res.ID)
	}

	// the inline-source run is a run, not also a compile
	st := svc.Stats()
	if st.Compiles != 1 || st.Runs != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 compile, 2 runs, 0 failures", st)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("second compile did not hit the shared cache: %+v", st.Cache)
	}
}

// TestServiceRunUnknownID pins the typed not-found error.
func TestServiceRunUnknownID(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	_, err := svc.Run(context.Background(), RunRequest{ID: "deadbeef"})
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("err = %v, want ErrUnknownProgram", err)
	}
	_, err = svc.Page(context.Background(), PageRequest{ID: "deadbeef"})
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("Page err = %v, want ErrUnknownProgram", err)
	}
}

// TestServiceRateLimit exhausts a session's token bucket and verifies
// the typed error, the counter, and that other sessions are unaffected.
func TestServiceRateLimit(t *testing.T) {
	svc := newTestService(t, ServiceConfig{RateLimit: 0.001, RateBurst: 2})
	src := Fig1Src(32, 4)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := svc.Compile(ctx, CompileRequest{Session: "greedy", Source: src}); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err := svc.Compile(ctx, CompileRequest{Session: "greedy", Source: src})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if _, err := svc.Compile(ctx, CompileRequest{Session: "patient", Source: src}); err != nil {
		t.Fatalf("other session was throttled too: %v", err)
	}
	if st := svc.Stats(); st.RateLimited != 1 || st.Sessions != 2 {
		t.Fatalf("stats = %+v, want RateLimited=1 Sessions=2", st)
	}
}

// TestServiceOverload saturates a 1-worker, depth-1 service and
// verifies the queue-full fast failure.
func TestServiceOverload(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Workers: 1, QueueDepth: 1})
	big := SyntheticProcsSrc(80, 10, 128, 4)
	ctx := context.Background()

	errc := make(chan error, 2)
	go func() { // occupies the only worker
		_, err := svc.Compile(ctx, CompileRequest{Session: "a", Source: big})
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 })
	go func() { // fills the queue
		_, err := svc.Compile(ctx, CompileRequest{Session: "b", Source: big})
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })

	_, err := svc.Compile(ctx, CompileRequest{Session: "c", Source: Fig1Src(32, 4)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want Rejected=1", st)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("queued compile %d failed: %v", i, err)
		}
	}
}

// TestServiceQueueWaitCancel verifies that a request waiting for a
// worker slot honours its context.
func TestServiceQueueWaitCancel(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Workers: 1, QueueDepth: 4})
	big := SyntheticProcsSrc(80, 10, 128, 4)
	done := make(chan error, 1)
	go func() {
		_, err := svc.Compile(context.Background(), CompileRequest{Session: "a", Source: big})
		done <- err
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() {
		_, err := svc.Compile(ctx, CompileRequest{Session: "b", Source: big})
		waiting <- err
	}()
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })
	cancel()
	select {
	case err := <-waiting:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued request err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled queued request did not return")
	}
	if err := <-done; err != nil {
		t.Fatalf("running compile failed: %v", err)
	}
	if st := svc.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", st.Queued)
	}
}

// TestServiceClosed pins the post-Close behaviour.
func TestServiceClosed(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	svc.Close()
	_, err := svc.Compile(context.Background(), CompileRequest{Source: Fig1Src(32, 4)})
	if !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("err = %v, want ErrServiceClosed", err)
	}
}

// TestServiceProgramLRU verifies the bounded program table evicts the
// least recently used compilation.
func TestServiceProgramLRU(t *testing.T) {
	svc := newTestService(t, ServiceConfig{MaxPrograms: 2})
	ctx := context.Background()
	ids := make([]string, 3)
	for i, src := range []string{Fig1Src(32, 4), Fig1Src(48, 4), Fig1Src(64, 4)} {
		res, err := svc.Compile(ctx, CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.ID
	}
	if _, err := svc.Run(ctx, RunRequest{ID: ids[0]}); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("oldest program still retained, err = %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := svc.Run(ctx, RunRequest{ID: id}); err != nil {
			t.Fatalf("recent program %s evicted: %v", id, err)
		}
	}
}

// TestServiceResubmitKeepsProgram: a second compile of the same source
// returns and keeps the program the first one retained, so a run by id
// after a resubmit reuses the plan the first run lowered.
func TestServiceResubmitKeepsProgram(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	first, err := svc.Compile(ctx, CompileRequest{Source: Fig1Src(32, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(ctx, RunRequest{ID: first.ID}); err != nil {
		t.Fatal(err)
	}
	again, err := svc.Compile(ctx, CompileRequest{Source: Fig1Src(32, 4)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.lookup(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID || again.Program != first.Program || p.prog != first.Program {
		t.Fatalf("the resubmit retained another program: ids %s %s", first.ID, again.ID)
	}
	if len(again.CacheMisses) != 0 || len(again.CacheHits) == 0 {
		t.Fatalf("the resubmit reports hits %v, misses %v; want its own warm compile's", again.CacheHits, again.CacheMisses)
	}
}

// TestServiceRetainsCompileDeadline: a program compiled with no
// deadline of its own is retained with the one it inherited from the
// service, so the recompile behind its page is bounded like the
// compile was.
func TestServiceRetainsCompileDeadline(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Options: Options{Deadline: time.Minute}})
	res, err := svc.Compile(context.Background(), CompileRequest{Source: Fig1Src(32, 4)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.lookup(res.ID)
	if err != nil || p.opts.Deadline != time.Minute {
		t.Fatalf("retained program %+v (%v), want the service's compile deadline %v", p, err, time.Minute)
	}
}

// TestServiceRejectsOwnedOptions verifies per-request options cannot
// smuggle in a cache or observability sinks.
func TestServiceRejectsOwnedOptions(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	for _, opts := range []Options{
		{Cache: NewSummaryCache()},
		{Cache: mustDisk(NewDiskSummaryCache(t.TempDir()))},
		{Trace: NewTrace()},
		{Explain: NewExplain()},
	} {
		if _, err := svc.Compile(ctx, CompileRequest{Source: Fig1Src(32, 4), Options: opts}); err == nil {
			t.Fatalf("Compile accepted request options %+v", opts)
		}
	}
}

// TestServiceMetrics checks the families a Service records: outcome
// counters, latency histogram counts matching request totals,
// rejection reasons, and the cache-tier counters sampled straight from
// the summary cache.
func TestServiceMetrics(t *testing.T) {
	svc := newTestService(t, ServiceConfig{RateLimit: 0.001, RateBurst: 3})
	src := Fig1Src(32, 4)
	ctx := context.Background()
	if _, err := svc.Compile(ctx, CompileRequest{Session: "m", Source: src}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compile(ctx, CompileRequest{Session: "m", Source: src}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compile(ctx, CompileRequest{Session: "m", Source: "PROGRAM ("}); err == nil {
		t.Fatal("bad source compiled")
	}
	if _, err := svc.Compile(ctx, CompileRequest{Session: "m", Source: src}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("4th request err = %v, want ErrRateLimited", err)
	}
	snap := svc.Metrics()
	if got := snap.Value("fdd_compiles_total", "outcome", "ok"); got != 2 {
		t.Errorf("compiles ok = %v, want 2", got)
	}
	if got := snap.Value("fdd_compiles_total", "outcome", "error"); got != 1 {
		t.Errorf("compiles error = %v, want 1", got)
	}
	if got := snap.Value("fdd_rejected_total", "reason", "rate-limit"); got != 1 {
		t.Errorf("rate-limit rejections = %v, want 1", got)
	}
	if c, n := snap.Value("fdd_compile_seconds"), snap.Value("fdd_compiles_total"); c != n {
		t.Errorf("histogram count %v != compiles_total %v (rejected requests must not observe)", c, n)
	}
	st := svc.Cache().Stats()
	if got := snap.Value("fdd_cache_hits_total", "tier", "memory"); got != float64(st.Hits-st.DiskHits) {
		t.Errorf("memory cache hits = %v, want %d", got, st.Hits-st.DiskHits)
	}
	if got := snap.Value("fdd_cache_misses_total"); got != float64(st.Misses) {
		t.Errorf("cache misses = %v, want %d", got, st.Misses)
	}
	if got := snap.Value("fdd_pool_workers"); got <= 0 {
		t.Errorf("pool workers = %v, want > 0", got)
	}
}

// TestServiceRunDeadlineOutcome: a run stopped by RunDeadline counts
// as a deadline outcome, as a compile stopped by Options.Deadline does,
// not as an error.
func TestServiceRunDeadlineOutcome(t *testing.T) {
	svc := newTestService(t, ServiceConfig{RunDeadline: time.Millisecond})
	_, err := svc.Run(context.Background(), RunRequest{Source: Jacobi2DSrc(256, 200, 16)})
	var dl *DeadlockError
	if !errors.As(err, &dl) || !dl.Deadline {
		t.Fatalf("run err = %v, want a *DeadlockError past its deadline", err)
	}
	snap := svc.Metrics()
	if got := snap.Value("fdd_runs_total", "outcome", "deadline"); got != 1 {
		t.Errorf("runs deadline = %v, want 1", got)
	}
	if got := snap.Value("fdd_runs_total", "outcome", "error"); got != 0 {
		t.Errorf("runs error = %v, want 0", got)
	}
}

// TestServiceAccounting sends one request of every kind — a compile,
// runs by id and by inline source, a page, a rate-limited and an
// overloaded request — and checks the one set of books: each Stats
// field is its registry sum, and every request landed in exactly one
// outcome or rejection counter.
func TestServiceAccounting(t *testing.T) {
	svc := newTestService(t, ServiceConfig{Workers: 1, QueueDepth: 1, RateLimit: 0.001, RateBurst: 1})
	ctx := context.Background()
	src := Jacobi1DSrc(64, 2, 4)
	init := map[string][]float64{"a": Ramp(64)}
	res, err := svc.Compile(ctx, CompileRequest{Session: "compile", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compile(ctx, CompileRequest{Session: "compile", Source: src}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second compile in a spent session: %v, want ErrRateLimited", err)
	}
	if _, err := svc.Run(ctx, RunRequest{Session: "by-id", ID: res.ID, Init: init}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(ctx, RunRequest{Session: "inline", Source: src, Init: init}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Page(ctx, PageRequest{Session: "page", ID: res.ID}); err != nil {
		t.Fatal(err)
	}
	big := SyntheticProcsSrc(80, 10, 128, 4)
	errc := make(chan error, 2)
	go func() { // occupies the only worker
		_, err := svc.Compile(ctx, CompileRequest{Session: "busy", Source: big})
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Stats().InFlight == 1 })
	go func() { // fills the queue
		_, err := svc.Compile(ctx, CompileRequest{Session: "queued", Source: big})
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Stats().Queued == 1 })
	if _, err := svc.Compile(ctx, CompileRequest{Session: "late", Source: src}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("compile past the queue: %v, want ErrOverloaded", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	const requests = 8
	reg, st := svc.Metrics(), svc.Stats()
	for _, c := range []struct {
		name       string
		stats, reg float64
		want       float64
	}{
		{"compiles", float64(st.Compiles), reg.Value("fdd_compiles_total"), 3},
		{"runs", float64(st.Runs), reg.Value("fdd_runs_total"), 3},
		{"failures", float64(st.Failures), reg.Value("fdd_compiles_total") + reg.Value("fdd_runs_total") -
			reg.Value("fdd_compiles_total", "outcome", "ok") - reg.Value("fdd_runs_total", "outcome", "ok"), 0},
		{"rate-limited", float64(st.RateLimited), reg.Value("fdd_rejected_total", "reason", "rate-limit"), 1},
		{"rejected", float64(st.Rejected), reg.Value("fdd_rejected_total", "reason", "overload"), 1},
		{"in flight", float64(st.InFlight), reg.Value("fdd_pool_inflight"), 0},
		{"requests", requests, reg.Value("fdd_compiles_total") + reg.Value("fdd_runs_total") + reg.Value("fdd_rejected_total"), requests},
	} {
		if c.stats != c.reg || c.reg != c.want {
			t.Errorf("%s: Stats %v, registry %v, want both %v", c.name, c.stats, c.reg, c.want)
		}
	}
}

// TestServiceBoundsProcessors: a program on more processors than the
// service runs is refused before it is retained, whether options.p or
// n$proc asked for them; the bound itself still compiles.
func TestServiceBoundsProcessors(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := context.Background()
	for spelling, req := range map[string]CompileRequest{
		"options.p": {Source: Jacobi1DSrc(64, 2, 4), Options: Options{P: maxServiceProcs + 1}},
		"n$proc":    {Source: Jacobi1DSrc(64, 2, 4*maxServiceProcs)},
	} {
		if _, err := svc.Compile(ctx, req); err == nil {
			t.Errorf("%s: compiled past the bound", spelling)
		}
		if _, err := svc.Run(ctx, RunRequest{Source: req.Source, Options: req.Options}); err == nil {
			t.Errorf("%s: ran past the bound", spelling)
		}
	}
	if st := svc.Stats(); st.Programs != 0 {
		t.Fatalf("retained %d refused programs", st.Programs)
	}
	res, err := svc.Compile(ctx, CompileRequest{Source: Jacobi1DSrc(64, 2, 4), Options: Options{P: maxServiceProcs}})
	if err != nil || res.Program.P() != maxServiceProcs {
		t.Fatalf("compile at the bound: %v", err)
	}
}

// TestServiceRateLimitRetryAfter pins the typed rate-limit error: it
// matches the ErrRateLimited sentinel and carries a positive refill
// duration consistent with the configured rate.
func TestServiceRateLimitRetryAfter(t *testing.T) {
	svc := newTestService(t, ServiceConfig{RateLimit: 0.5, RateBurst: 1})
	src := Fig1Src(32, 4)
	ctx := context.Background()
	if _, err := svc.Compile(ctx, CompileRequest{Session: "g", Source: src}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Compile(ctx, CompileRequest{Session: "g", Source: src})
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("err = %T %v, want *RateLimitError", err, err)
	}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatal("RateLimitError does not match the ErrRateLimited sentinel")
	}
	if rl.Session != "g" {
		t.Errorf("Session = %q, want g", rl.Session)
	}
	// 0.5 req/s refills one token in ~2s (a sliver may already have
	// refilled since the first request).
	if rl.RetryAfter <= time.Second || rl.RetryAfter > 2*time.Second {
		t.Errorf("RetryAfter = %v, want ~2s", rl.RetryAfter)
	}
}

// TestServiceRequestID pins the context plumbing: failures under a
// WithRequestID context come back wrapped in a *RequestError naming
// the id, with errors.Is still seeing the underlying typed error.
func TestServiceRequestID(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	ctx := WithRequestID(context.Background(), "req-42")
	if got := RequestIDFrom(ctx); got != "req-42" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	_, err := svc.Run(ctx, RunRequest{ID: "no-such-id"})
	var re *RequestError
	if !errors.As(err, &re) || re.ID != "req-42" {
		t.Fatalf("err = %T %v, want *RequestError{ID: req-42}", err, err)
	}
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatal("RequestError hides the underlying typed error")
	}
	// Successes are not wrapped, and an id-free context changes nothing.
	if _, err := svc.Compile(ctx, CompileRequest{Source: Fig1Src(32, 4)}); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Run(context.Background(), RunRequest{ID: "no-such-id"})
	if errors.As(err, &re) {
		t.Fatal("error wrapped without a request id in context")
	}
}

// waitFor polls cond for up to 5s; the deadline only trips when the
// surrounding machinery has genuinely stalled.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// crasherPrograms are inputs that used to take the whole process down
// by panicking a node goroutine: an intrinsic dividing by a divisor
// that truncates to zero, and intrinsics indexing arguments that are
// not there. A daemon must answer them with an error and keep serving.
var crasherPrograms = []string{`
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL x(8)
      x(1) = MOD(5, 0.5)
      END
`, `
      PROGRAM P
      PARAMETER (n$proc = 1)
      REAL x(8)
      x(1) = MAX() + ABS() + SQRT() + first$(1, 2)
      END
`}

// TestServiceSurvivesCrasherPrograms: a run of a crasher program fails
// with the failing processor's NodeError (which processor gets there
// first depends on the engine) — no panic escapes the machine — and the
// same service then serves the next request.
func TestServiceSurvivesCrasherPrograms(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	for _, src := range crasherPrograms {
		_, err := svc.Run(context.Background(), RunRequest{Session: "s", Source: src})
		var ne *NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("crasher run = %v, want a NodeError", err)
		}
	}
	good := Jacobi1DSrc(32, 2, 4)
	out, err := svc.Run(context.Background(), RunRequest{Session: "s", Source: good})
	if err != nil || out.Result.Stats.Messages == 0 {
		t.Fatalf("run after the crashers: %v, %+v", err, out)
	}
	if st := svc.Stats(); st.Failures != int64(len(crasherPrograms)) {
		t.Errorf("stats = %+v, want %d failures", st, len(crasherPrograms))
	}
}

// TestServiceRunSurvivesProfileStoreFailure: a profile store that can
// no longer write (its directory replaced by a file after NewService —
// chmod is a no-op for root) loses the artifact, not the run: the run
// returns its stats with no profile id, the loss is counted, and the
// blocked-share histogram still has one observation per stored profile.
func TestServiceRunSurvivesProfileStoreFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	svc := newTestService(t, ServiceConfig{ProfileDir: dir})
	req := RunRequest{Source: Jacobi1DSrc(64, 2, 4), Init: map[string][]float64{"a": Ramp(64)}, Profile: true}
	ctx := context.Background()
	stored, err := svc.Run(ctx, req)
	if err != nil || stored.ProfileID == "" {
		t.Fatalf("run with a working store: %+v, %v", stored, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Run(ctx, req)
	if err != nil {
		t.Fatalf("run failed because its profile could not be stored: %v", err)
	}
	if got, want := out.Result.Stats.String(), stored.Result.Stats.String(); out.ProfileID != "" || got != want {
		t.Errorf("run = profile %q, stats %s; want no profile and stats %s", out.ProfileID, got, want)
	}
	snap := svc.Metrics()
	if got := snap.Value("fdd_runs_total", "outcome", "ok"); got != 2 {
		t.Errorf("fdd_runs_total{outcome=ok} = %v, want 2", got)
	}
	for _, name := range []string{"fdd_profiles_stored_total", "fdd_run_blocked_share", "fdd_profile_store_errors_total"} {
		if got := snap.Value(name); got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
}
