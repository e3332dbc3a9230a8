package fortd

// Service is the compile-as-a-service engine: the production analogue
// of ParaScope's program database. One process-wide Service owns the
// shared summary cache (optionally disk-persisted, so restarts and
// parallel servers stay warm), a bounded worker pool, per-session
// token-bucket rate limits and the metrics registry that records its
// requests; cmd/fdd exposes it over HTTP/JSON. All methods are safe
// for concurrent use — that is the point.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fortd/internal/metrics"
	"fortd/internal/profile"
	"fortd/internal/summarycache"
	"fortd/internal/trace/analyze"
)

// Typed service errors. The HTTP layer maps these onto status codes
// (429, 503, 404); library callers test them with errors.Is.
var (
	// ErrRateLimited reports that the request's session exhausted its
	// token bucket. Retry after ~1/RateLimit seconds.
	ErrRateLimited = errors.New("fortd: session rate limit exceeded")
	// ErrOverloaded reports that the service's queue is full: every
	// worker is busy and QueueDepth requests are already waiting.
	ErrOverloaded = errors.New("fortd: service overloaded, queue full")
	// ErrServiceClosed reports a request against a closed Service.
	ErrServiceClosed = errors.New("fortd: service closed")
	// ErrUnknownProgram reports a run or report request naming a
	// program id the service has not compiled (or has since evicted).
	ErrUnknownProgram = errors.New("fortd: unknown program id")
	// ErrUnknownProfile reports a profile id the service's store does
	// not hold.
	ErrUnknownProfile = errors.New("fortd: unknown profile id")
)

// RateLimitError is the concrete error behind ErrRateLimited
// (errors.Is(err, ErrRateLimited) matches it): it carries how long
// the session's token bucket needs to refill one token, so transports
// can emit an honest Retry-After.
type RateLimitError struct {
	// Session is the throttled session id.
	Session string
	// RetryAfter is the refill time until the bucket holds one token.
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("fortd: session %q rate limit exceeded, retry in %v", e.Session, e.RetryAfter.Round(time.Millisecond))
}

// Is reports ErrRateLimited as this error's sentinel.
func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// RequestError annotates a Service failure with the request id the
// calling transport stored in the context via WithRequestID, so one
// id ties a client's error report to the daemon's logs and traces.
type RequestError struct {
	// ID is the request id the failure occurred under.
	ID string
	// Err is the underlying failure; errors.Is/As see through it.
	Err error
}

func (e *RequestError) Error() string { return "request " + e.ID + ": " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is and errors.As.
func (e *RequestError) Unwrap() error { return e.Err }

// requestIDKey keys the request id in a context.
type requestIDKey struct{}

// WithRequestID returns a context carrying a request id. Service
// methods wrap their failures in a *RequestError naming it.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request id stored by WithRequestID ("" if
// none).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// tagRequest wraps err with the context's request id, if any.
func tagRequest(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if id := RequestIDFrom(ctx); id != "" {
		return &RequestError{ID: id, Err: err}
	}
	return err
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Options is the base compilation configuration; per-request
	// options override it field by field at the transport layer. Its
	// Cache must be unset — the Service owns the cache
	// (set ServiceConfig.CacheDir for the disk tier) — and its Trace
	// and Explain must be nil (observability is per-request).
	Options Options
	// CacheDir, when non-empty, backs the shared summary cache with
	// entry files under this directory (see NewDiskSummaryCache), so a
	// restarted or parallel server serves previously-compiled
	// procedures as disk hits with no phase-3 re-analysis.
	CacheDir string
	// Workers bounds the number of concurrently executing compile/run
	// requests (0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many requests may wait for a worker slot
	// beyond the ones executing (0: 4×Workers). Requests beyond the
	// bound fail fast with ErrOverloaded instead of piling up.
	QueueDepth int
	// RateLimit is each session's sustained request budget in requests
	// per second (0: unlimited).
	RateLimit float64
	// RateBurst is each session's token-bucket capacity — how many
	// requests may arrive back to back before the sustained rate
	// applies (0: 2×ceil(RateLimit), at least 1). Requires RateLimit.
	RateBurst int
	// ProfileDir, when non-empty, persists profile artifacts collected
	// by RunRequest.Profile as content-hash-keyed files under this
	// directory, so a restarted daemon keeps serving its accumulated
	// profile corpus. Empty keeps profiles in memory only, at most
	// 1 024 of them: the oldest stored is evicted first and then
	// answers as unknown.
	ProfileDir string
	// RunDeadline bounds each simulated run's wall-clock time, a
	// report's run included (0: none); the machine detects a true
	// deadlock regardless.
	RunDeadline time.Duration
	// MaxPrograms bounds the compiled-program table serving run-by-id
	// and /report/{id}; the least recently used entry is evicted (0:
	// 256). Each retained program that has run also holds its execution
	// plan, about the program's own size.
	MaxPrograms int
}

// Validate reports the first invalid field or combination.
func (c ServiceConfig) Validate() error {
	if err := c.Options.Validate(); err != nil {
		return err
	}
	if c.Options.Cache != nil {
		return fmt.Errorf("fortd: ServiceConfig.Options must not carry a cache; the Service owns it (set ServiceConfig.CacheDir for the disk tier)")
	}
	if c.Options.Trace != nil || c.Options.Explain != nil {
		return fmt.Errorf("fortd: ServiceConfig.Options must not carry a Trace or Explain; observability is per-request")
	}
	if c.Workers < 0 {
		return fmt.Errorf("fortd: ServiceConfig.Workers = %d, must be >= 0 (0 uses GOMAXPROCS)", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("fortd: ServiceConfig.QueueDepth = %d, must be >= 0 (0 uses 4x workers)", c.QueueDepth)
	}
	if c.RateLimit < 0 {
		return fmt.Errorf("fortd: ServiceConfig.RateLimit = %g, must be >= 0 (0 disables rate limiting)", c.RateLimit)
	}
	if c.RateBurst < 0 {
		return fmt.Errorf("fortd: ServiceConfig.RateBurst = %d, must be >= 0", c.RateBurst)
	}
	if c.RateBurst > 0 && c.RateLimit == 0 {
		return fmt.Errorf("fortd: ServiceConfig.RateBurst = %d without RateLimit; a burst needs a sustained rate to refill from", c.RateBurst)
	}
	if c.RunDeadline < 0 {
		return fmt.Errorf("fortd: ServiceConfig.RunDeadline = %v, must be >= 0 (0 disables it)", c.RunDeadline)
	}
	if c.MaxPrograms < 0 {
		return fmt.Errorf("fortd: ServiceConfig.MaxPrograms = %d, must be >= 0 (0 uses 256)", c.MaxPrograms)
	}
	return nil
}

// ServiceStats is a point-in-time view of a Service's counters,
// exposed by the daemon's /stats endpoint. The request counts are sums
// of the Service's metric families: every admitted request is one
// compile (a Compile call) or one run (a Run or Page call, inline
// source included), and every refused one a rejection.
type ServiceStats struct {
	Compiles    int64 `json:"compiles"`    // Σ fdd_compiles_total
	Runs        int64 `json:"runs"`        // Σ fdd_runs_total
	Failures    int64 `json:"failures"`    // compiles and runs whose outcome is not ok
	RateLimited int64 `json:"rateLimited"` // fdd_rejected_total{reason="rate-limit"}
	Rejected    int64 `json:"rejected"`    // fdd_rejected_total{reason="overload"}: queue-full fast failures
	InFlight    int   `json:"inFlight"`
	Queued      int   `json:"queued"`
	Workers     int   `json:"workers"`
	QueueDepth  int   `json:"queueDepth"`
	Sessions    int   `json:"sessions"` // sessions with a live token bucket
	Programs    int   `json:"programs"` // compiled programs held for run/report by id
	// Cache is for Go consumers; the daemon's /stats endpoint serves
	// it as a separate top-level object (with hitRate), so it is
	// excluded here to keep the wire format free of duplicates.
	Cache CacheStats `json:"-"`
}

// program is one retained compilation, addressable by content hash.
type program struct {
	id      string
	src     string
	opts    Options
	prog    *Program
	lastUse int64 // monotonic use sequence, for LRU eviction
}

// bucket is one session's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// serviceMetrics holds the service's instruments.
type serviceMetrics struct {
	compiles   *metrics.CounterVec // outcome: ok | canceled | deadline | error
	runs       *metrics.CounterVec // outcome
	rejected   *metrics.CounterVec // reason: rate-limit | overload | closed
	compileSec *metrics.Histogram
	runSec     *metrics.Histogram
	// blockedShare observes each profiled run's machine-wide blocked
	// fraction; profilesStored counts artifacts written to the profile
	// store. Exactly one histogram observation per stored profile, so
	// fdd_run_blocked_share_count == fdd_profiles_stored_total is a
	// scrape-time accounting identity (checked by cmd/fdd's TestDaemonLoad);
	// profileErrors counts the artifacts the store could not write.
	blockedShare   *metrics.Histogram
	profilesStored *metrics.Counter
	profileErrors  *metrics.Counter
}

// outcomeLabel maps a request error onto its counter label. A run
// stopped by its wall-clock deadline counts as "deadline", like a
// compile stopped by Options.Deadline.
func outcomeLabel(err error) string {
	var dl *DeadlockError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &dl) && dl.Deadline:
		return "deadline"
	default:
		return "error"
	}
}

// register creates the service's metric families on reg and wires the
// sampled gauges (pool, sessions, programs) and cache-tier counters
// to s; sampled series read live state at scrape time, and Stats()
// reads the request counters back from reg, so /metrics and Stats()
// can never drift apart.
func (m *serviceMetrics) register(reg *metrics.Registry, s *Service) {
	m.compiles = reg.CounterVec("fdd_compiles_total", "Compile requests by outcome.", "outcome")
	m.runs = reg.CounterVec("fdd_runs_total", "Run requests by outcome.", "outcome")
	m.rejected = reg.CounterVec("fdd_rejected_total", "Requests rejected before acquiring a worker, by reason.", "reason")
	m.compileSec = reg.Histogram("fdd_compile_seconds", "Compile latency including queue wait.", nil)
	m.runSec = reg.Histogram("fdd_run_seconds", "Run latency including queue wait.", nil)
	m.blockedShare = reg.Histogram("fdd_run_blocked_share", "Machine-wide blocked fraction of profiled runs (one observation per stored profile).",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1})
	m.profilesStored = reg.Counter("fdd_profiles_stored_total", "Profile artifacts stored by RunRequest.Profile.")
	m.profileErrors = reg.Counter("fdd_profile_store_errors_total", "Profiled runs answered without a profile id because the profile store could not write the artifact.")
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	reg.GaugeFunc("fdd_queue_depth", "Requests waiting for a worker slot.",
		locked(func() float64 { return float64(s.queued) }))
	reg.GaugeFunc("fdd_queue_limit", "Maximum requests allowed to wait (QueueDepth).",
		func() float64 { return float64(s.depth) })
	reg.GaugeFunc("fdd_pool_inflight", "Requests currently executing.",
		func() float64 { return float64(len(s.slots)) })
	reg.GaugeFunc("fdd_pool_workers", "Worker-pool size.",
		func() float64 { return float64(s.workers) })
	reg.GaugeFunc("fdd_pool_saturation", "Executing requests over pool size (1 = every worker busy).",
		func() float64 { return float64(len(s.slots)) / float64(s.workers) })
	reg.GaugeFunc("fdd_sessions", "Sessions holding a live token bucket.",
		locked(func() float64 { return float64(len(s.sessions)) }))
	reg.GaugeFunc("fdd_programs", "Compiled programs retained for run/report by id.",
		locked(func() float64 { return float64(len(s.programs)) }))
	reg.CounterFunc("fdd_cache_hits_total", "Summary-cache hits by tier (memory: in-process table, disk: entry file load).",
		func() float64 { st := s.cache.Stats(); return float64(st.Hits - st.DiskHits) }, "tier", "memory")
	reg.CounterFunc("fdd_cache_hits_total", "Summary-cache hits by tier (memory: in-process table, disk: entry file load).",
		func() float64 { return float64(s.cache.Stats().DiskHits) }, "tier", "disk")
	reg.CounterFunc("fdd_cache_misses_total", "Summary-cache misses (procedure analyzed from scratch).",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.GaugeFunc("fdd_cache_entries", "Summary-cache entries by tier.",
		func() float64 { return float64(s.cache.Stats().Entries) }, "tier", "memory")
	reg.GaugeFunc("fdd_cache_entries", "Summary-cache entries by tier.",
		func() float64 { return float64(s.cache.Stats().DiskEntries) }, "tier", "disk")
}

// Service serves compilations and simulated runs for many concurrent
// sessions from one process. Create with NewService; a Service must
// not be copied.
type Service struct {
	cfg      ServiceConfig
	cache    *SummaryCache
	profiles profile.Store
	workers  int
	depth    int
	burst    float64
	reg      *metrics.Registry
	met      serviceMetrics

	slots chan struct{} // one token per executing request

	mu       sync.Mutex
	closed   bool
	queued   int
	sessions map[string]*bucket
	programs map[string]*program
	useSeq   int64
}

// NewService validates cfg and builds a Service. The shared summary
// cache is created here: memory-only, or disk-backed when cfg.CacheDir
// is set.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cache := NewSummaryCache()
	if cfg.CacheDir != "" {
		var err error
		if cache, err = NewDiskSummaryCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	var profiles profile.Store = profile.NewMemStore()
	if cfg.ProfileDir != "" {
		var err error
		if profiles, err = profile.NewDirStore(cfg.ProfileDir); err != nil {
			return nil, err
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 4 * workers
	}
	burst := float64(cfg.RateBurst)
	if burst == 0 && cfg.RateLimit > 0 {
		burst = 2 * float64(int(cfg.RateLimit+0.999))
		if burst < 1 {
			burst = 1
		}
	}
	s := &Service{
		cfg: cfg, cache: cache, profiles: profiles,
		workers: workers, depth: depth, burst: burst,
		reg:      metrics.New(),
		slots:    make(chan struct{}, workers),
		sessions: map[string]*bucket{},
		programs: map[string]*program{},
	}
	s.met.register(s.reg, s)
	return s, nil
}

// Cache returns the service's shared summary cache.
func (s *Service) Cache() *SummaryCache { return s.cache }

// Metrics returns the registry recording the service's requests, pool,
// sessions, programs and summary cache; a transport registers its own
// families beside them and serves the lot.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Close marks the service closed: subsequent requests fail with
// ErrServiceClosed; requests already executing finish normally.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Stats returns the current counters.
func (s *Service) Stats() ServiceStats {
	sum := func(name string, labelPairs ...string) int64 { return int64(s.reg.Value(name, labelPairs...)) }
	compiles, runs := sum("fdd_compiles_total"), sum("fdd_runs_total")
	st := ServiceStats{
		Compiles: compiles, Runs: runs,
		Failures:    compiles - sum("fdd_compiles_total", "outcome", "ok") + runs - sum("fdd_runs_total", "outcome", "ok"),
		RateLimited: sum("fdd_rejected_total", "reason", "rate-limit"),
		Rejected:    sum("fdd_rejected_total", "reason", "overload"),
		InFlight:    len(s.slots),
		Workers:     s.workers, QueueDepth: s.depth,
		Cache: s.cache.Stats(),
	}
	s.mu.Lock()
	st.Queued, st.Sessions, st.Programs = s.queued, len(s.sessions), len(s.programs)
	s.mu.Unlock()
	return st
}

// sessionIdleTimeout is how long an unused token bucket survives; the
// map is pruned opportunistically so millions of one-shot sessions
// cannot grow it without bound.
const sessionIdleTimeout = 5 * time.Minute

// admit performs the per-session rate-limit check at time now.
func (s *Service) admit(session string, now time.Time) error {
	if s.cfg.RateLimit <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.sessions[session]
	if b == nil {
		if len(s.sessions) >= 8192 {
			for k, ob := range s.sessions {
				if now.Sub(ob.last) > sessionIdleTimeout {
					delete(s.sessions, k)
				}
			}
		}
		b = &bucket{tokens: s.burst}
		s.sessions[session] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * s.cfg.RateLimit
		if b.tokens > s.burst {
			b.tokens = s.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		s.met.rejected.With("rate-limit").Inc()
		return &RateLimitError{
			Session:    session,
			RetryAfter: time.Duration((1 - b.tokens) / s.cfg.RateLimit * float64(time.Second)),
		}
	}
	b.tokens--
	return nil
}

// acquire admits the request through the rate limiter, then waits for
// a worker slot (bounded by QueueDepth). The caller must release()
// after a nil return.
func (s *Service) acquire(ctx context.Context, session string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.rejected.With("closed").Inc()
		return ErrServiceClosed
	}
	s.mu.Unlock()
	if err := s.admit(session, time.Now()); err != nil {
		return err
	}
	s.mu.Lock()
	if s.queued >= s.depth {
		s.mu.Unlock()
		s.met.rejected.With("overload").Inc()
		return ErrOverloaded
	}
	s.queued++
	s.mu.Unlock()
	select {
	case s.slots <- struct{}{}:
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		// counted as a rejection so every request lands in exactly one
		// counter: an outcome, or a rejection reason
		s.met.rejected.With("canceled").Inc()
		return ctx.Err()
	}
}

func (s *Service) release() { <-s.slots }

// ProgramID is the content hash a compilation is addressable under:
// it covers the source text and every option that influences the
// generated code, so byte-identical listings map one-to-one onto ids.
// (Jobs is excluded — the parallel scheduler's output is byte-identical
// for any worker count.)
func ProgramID(src string, opts Options) string {
	return summarycache.Hash(
		"src", src,
		"p", fmt.Sprint(opts.P),
		"strategy", fmt.Sprint(int(opts.Strategy)),
		"remap", fmt.Sprint(int(opts.RemapOpt)),
		"clone", fmt.Sprint(opts.CloneLimit),
		"overlap", fmt.Sprint(opts.Overlap),
	)
}

// CompileRequest is one session's compile call.
type CompileRequest struct {
	// Session identifies the requesting session for rate limiting
	// ("" is a valid shared session).
	Session string
	// Source is the Fortran D program text.
	Source string
	// Options configures the compilation. Cache, Trace and
	// Explain must be unset: the service attaches its shared cache and
	// per-request collectors itself.
	Options Options
	// Explain requests optimization remarks in the result.
	Explain bool
}

// CompileResult is a compile call's outcome.
type CompileResult struct {
	// ID addresses this compilation in later Run and Report calls.
	ID string
	// Program is the compiled program (shared, immutable): the one the
	// service retains under ID, compiled first for that ID.
	Program *Program
	// Listing is the generated SPMD node program.
	Listing string
	// Report carries the code-generation counters.
	Report Report
	// CacheHits and CacheMisses list the procedures served from /
	// stored into the shared summary cache.
	CacheHits, CacheMisses []string
	// Remarks holds the optimization remarks (when requested).
	Remarks []Remark
}

// maxServiceProcs bounds the processor count of a program the service
// retains or runs, however it was spelled (Options.P or n$proc): a
// simulated run's memory grows with P, and the compile that sets P
// costs nothing, so one request could otherwise take the process down.
// It is the largest P the test suite runs (TestScaledWorkloadsP4096).
const maxServiceProcs = 4096

// Compile compiles source text through the shared summary cache and
// retains the program for run-by-id and report-by-id; a program on
// more than 4 096 processors is refused. Concurrent compilations of
// the same content hash are allowed (both execute; the summary cache
// deduplicates the per-procedure work).
func (s *Service) Compile(ctx context.Context, req CompileRequest) (*CompileResult, error) {
	start := time.Now()
	if err := s.acquire(ctx, req.Session); err != nil {
		return nil, tagRequest(ctx, err)
	}
	defer s.release()
	res, err := s.compileLocked(ctx, req)
	s.met.compiles.With(outcomeLabel(err)).Inc()
	s.met.compileSec.Observe(time.Since(start).Seconds())
	return res, tagRequest(ctx, err)
}

// compileLocked does the compile work inside an acquired worker slot
// (it also serves Run requests that carry inline source, which count
// as runs only).
func (s *Service) compileLocked(ctx context.Context, req CompileRequest) (*CompileResult, error) {
	opts := req.Options
	if opts.Cache != nil || opts.Trace != nil || opts.Explain != nil {
		return nil, fmt.Errorf("fortd: CompileRequest.Options must not carry a cache, trace or explain; the service owns them")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.Cache = s.cache
	if opts.Deadline == 0 {
		opts.Deadline = s.cfg.Options.Deadline
	}
	// Like Deadline, a request that does not ask for overlap inherits
	// the service-wide default (fdd -overlap); an explicit
	// Options.Overlap = true always wins.
	if !opts.Overlap {
		opts.Overlap = s.cfg.Options.Overlap
	}
	var ex *Explain
	if req.Explain {
		ex = NewExplain()
		opts.Explain = ex
	}
	prog, err := CompileContext(ctx, req.Source, opts)
	if err != nil {
		return nil, err
	}
	if prog.P() > maxServiceProcs {
		return nil, fmt.Errorf("fortd: the program runs on %d processors; the service runs at most %d", prog.P(), maxServiceProcs)
	}
	// The id and retained options reflect the effective compile (after
	// Deadline/Overlap inheritance), so an explicit-overlap request and
	// one inheriting a default-on service map to the same program id.
	eff := req.Options
	eff.Deadline, eff.Overlap = opts.Deadline, opts.Overlap
	res := &CompileResult{
		ID:      ProgramID(req.Source, eff),
		Program: prog,
		Listing: prog.Listing(),
		Report:  prog.Report(),
	}
	res.CacheHits = append(res.CacheHits, prog.CacheHits()...)
	res.CacheMisses = append(res.CacheMisses, prog.CacheMisses()...)
	if ex != nil {
		res.Remarks = ex.Remarks()
	}
	res.Program = s.retain(&program{id: res.ID, src: req.Source, opts: eff, prog: prog}).prog
	return res, nil
}

// retain stores p in the program table, evicting the least recently
// used entry past the cap, and returns the entry kept under p's id: a
// program the table already holds stays, with the plans its runs
// lowered, since the same source and options compile to the same
// program.
func (s *Service) retain(p *program) *program {
	max := s.cfg.MaxPrograms
	if max == 0 {
		max = 256
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.useSeq++
	if q := s.programs[p.id]; q != nil {
		p = q
	}
	p.lastUse = s.useSeq
	s.programs[p.id] = p
	for len(s.programs) > max {
		var lru *program
		for _, q := range s.programs {
			if lru == nil || q.lastUse < lru.lastUse {
				lru = q
			}
		}
		delete(s.programs, lru.id)
	}
	return p
}

// lookup returns the retained program for id, refreshing its LRU slot.
func (s *Service) lookup(id string) (*program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.programs[id]
	if p == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProgram, id)
	}
	s.useSeq++
	p.lastUse = s.useSeq
	return p, nil
}

// RunRequest is one session's run call: it executes a program compiled
// earlier in this process (by ID) or compiles Source first.
type RunRequest struct {
	Session string
	// ID names a retained compilation; empty means compile Source.
	ID string
	// Source and Options are used when ID is empty (see CompileRequest).
	Source  string
	Options Options
	// Init seeds main-program arrays; InitScalars seeds scalars.
	Init        map[string][]float64
	InitScalars map[string]float64
	// Reference requests the sequential reference execution instead of
	// the parallel SPMD run.
	Reference bool
	// Profile traces the run and stores its profile artifact in the
	// service's profile store; the outcome carries the artifact's
	// content-hash id. Ignored for Reference runs (nothing to trace).
	Profile bool
	// Workload labels the stored profile's metadata ("" is fine).
	Workload string
}

// RunOutcome is a run call's result.
type RunOutcome struct {
	// ID is the executed program's id.
	ID string
	// Result carries the run statistics and assembled arrays.
	Result *Result
	// ProfileID addresses the stored profile artifact when the request
	// set Profile (empty otherwise, and for runs whose trace carried no
	// machine activity, or whose artifact the store could not write).
	ProfileID string `json:"profileId,omitempty"`
}

// Run executes a compiled program on the simulated machine. A dropped
// ctx aborts the simulated run through the machine's cooperative-abort
// channel.
func (s *Service) Run(ctx context.Context, req RunRequest) (*RunOutcome, error) {
	start := time.Now()
	if err := s.acquire(ctx, req.Session); err != nil {
		return nil, tagRequest(ctx, err)
	}
	defer s.release()
	out, err := s.runLocked(ctx, req)
	s.countRun(start, err)
	return out, tagRequest(ctx, err)
}

// countRun records one finished run request, admitted at start.
func (s *Service) countRun(start time.Time, err error) {
	s.met.runs.With(outcomeLabel(err)).Inc()
	s.met.runSec.Observe(time.Since(start).Seconds())
}

func (s *Service) runLocked(ctx context.Context, req RunRequest) (*RunOutcome, error) {
	var prog *Program
	id := req.ID
	if id != "" {
		p, err := s.lookup(id)
		if err != nil {
			return nil, err
		}
		prog = p.prog
	} else {
		cres, err := s.compileLocked(ctx, CompileRequest{
			Session: req.Session, Source: req.Source, Options: req.Options,
		})
		if err != nil {
			return nil, err
		}
		prog, id = cres.Program, cres.ID
	}
	ropts := []RunOption{
		WithInit(req.Init),
		WithInitScalars(req.InitScalars),
		WithDeadline(s.cfg.RunDeadline),
	}
	var tr *Trace
	if req.Profile && !req.Reference {
		tr = NewTrace()
		ropts = append(ropts, WithTrace(tr))
	}
	r := NewRunner(ropts...)
	var (
		res *Result
		err error
	)
	if req.Reference {
		res, err = r.RunReferenceContext(ctx, prog)
	} else {
		res, err = r.RunContext(ctx, prog)
	}
	if err != nil {
		return nil, err
	}
	out := &RunOutcome{ID: id, Result: res}
	if tr != nil {
		pf := profile.FromEvents(tr.Events(), profile.Meta{
			ProgramHash: id,
			Workload:    req.Workload,
			P:           prog.P(),
			Backend:     "des",
		})
		if pf != nil {
			pid, err := s.profiles.Put(pf)
			if err != nil {
				// the store lost the artifact, not the run
				s.met.profileErrors.Inc()
				return out, nil
			}
			out.ProfileID = pid
			s.met.profilesStored.Inc()
			s.met.blockedShare.Observe(pf.BlockedShare())
		}
	}
	return out, nil
}

// Profile returns the stored profile artifact for id
// (ErrUnknownProfile when the store does not hold it).
func (s *Service) Profile(id string) (*profile.Profile, error) {
	p, err := s.profiles.Get(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProfile, id)
	}
	return p, nil
}

// Profiles lists the stored profile artifacts, sorted by id.
func (s *Service) Profiles() ([]profile.Entry, error) { return s.profiles.List() }

// PageRequest is one session's call for the HTML performance page of
// a program compiled earlier in this process.
type PageRequest struct {
	Session string
	// ID names a retained compilation.
	ID string
}

// Page renders the HTML performance page of a retained program (see
// PageSection): it recompiles the program traced and with remarks on,
// through the shared summary cache, and runs it. The request is
// admitted and counted as one run, as Run's are: the session rate
// limit, the queue bound and a worker slot apply, and the run stops at
// ServiceConfig.RunDeadline or when ctx is done. A procedure's cache key
// holds the remarks flag, so the first page of a program compiled
// without remarks misses every procedure.
func (s *Service) Page(ctx context.Context, req PageRequest) ([]byte, error) {
	start := time.Now()
	if err := s.acquire(ctx, req.Session); err != nil {
		return nil, tagRequest(ctx, err)
	}
	defer s.release()
	page, err := s.pageLocked(ctx, req.ID)
	s.countRun(start, err)
	return page, tagRequest(ctx, err)
}

func (s *Service) pageLocked(ctx context.Context, id string) ([]byte, error) {
	p, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	opts := p.opts
	opts.Cache = s.cache
	sec, err := PageSection(ctx, id[:12], p.src, nil, opts, nil, s.cfg.RunDeadline)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = analyze.WriteHTML(&buf, &analyze.Page{Title: "fdd compile report", Subtitle: "program " + id, Sections: []*analyze.Section{sec}})
	return buf.Bytes(), err
}
