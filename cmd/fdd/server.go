package main

// HTTP/JSON transport for fortd.Service: request decoding, option
// defaulting, and the mapping from the library's typed errors onto
// status codes and structured JSON error bodies. Handlers hold no
// state beyond the Service — everything shareable (summary cache,
// worker pool, rate limits, program table) lives there.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fortd"
	"fortd/internal/metrics"
	"fortd/internal/profile"
)

// optionsDTO is the wire form of fortd.Options: pointer fields so
// omitted values inherit the server's base options.
type optionsDTO struct {
	P          *int    `json:"p,omitempty"`
	Strategy   *string `json:"strategy,omitempty"` // interproc | runtime | immediate
	Remap      *string `json:"remap,omitempty"`    // none | live | hoist | kills
	CloneLimit *int    `json:"cloneLimit,omitempty"`
	Jobs       *int    `json:"jobs,omitempty"`
}

// apply overlays the DTO onto base.
func (d *optionsDTO) apply(base fortd.Options) (fortd.Options, error) {
	if d == nil {
		return base, nil
	}
	if d.P != nil {
		base.P = *d.P
	}
	if d.Strategy != nil {
		s, err := fortd.ParseStrategy(*d.Strategy)
		if err != nil {
			return base, err
		}
		base.Strategy = s
	}
	if d.Remap != nil {
		l, err := fortd.ParseRemapLevel(*d.Remap)
		if err != nil {
			return base, err
		}
		base.RemapOpt = l
	}
	if d.CloneLimit != nil {
		base.CloneLimit = *d.CloneLimit
	}
	if d.Jobs != nil {
		base.Jobs = *d.Jobs
	}
	return base, nil
}

type compileDTO struct {
	Session string      `json:"session"`
	Source  string      `json:"source"`
	Options *optionsDTO `json:"options,omitempty"`
	Explain bool        `json:"explain,omitempty"`
}

type runDTO struct {
	Session     string               `json:"session"`
	ID          string               `json:"id,omitempty"`
	Source      string               `json:"source,omitempty"`
	Options     *optionsDTO          `json:"options,omitempty"`
	Init        map[string][]float64 `json:"init,omitempty"`
	InitScalars map[string]float64   `json:"initScalars,omitempty"`
	Reference   bool                 `json:"reference,omitempty"`
	// Profile stores a profile artifact for the run (also settable via
	// the ?profile=true query parameter); Workload labels it.
	Profile  bool   `json:"profile,omitempty"`
	Workload string `json:"workload,omitempty"`
}

// errorBody is the structured JSON error every endpoint returns: Kind
// is machine-readable, Message carries the library's diagnostic
// (parse errors keep their "line N:" positions, deadlock reports their
// per-processor attribution).
type errorBody struct {
	Kind    string         `json:"kind"`
	Message string         `json:"message"`
	Detail  map[string]any `json:"detail,omitempty"`
}

// classify maps a library error onto (status, structured body).
func classify(err error) (int, errorBody) {
	switch {
	case errors.Is(err, fortd.ErrRateLimited):
		return http.StatusTooManyRequests, errorBody{Kind: "rate-limit", Message: err.Error()}
	case errors.Is(err, fortd.ErrOverloaded):
		return http.StatusServiceUnavailable, errorBody{Kind: "overloaded", Message: err.Error()}
	case errors.Is(err, fortd.ErrServiceClosed):
		return http.StatusServiceUnavailable, errorBody{Kind: "closed", Message: err.Error()}
	case errors.Is(err, fortd.ErrUnknownProgram):
		return http.StatusNotFound, errorBody{Kind: "unknown-program", Message: err.Error()}
	case errors.Is(err, fortd.ErrUnknownProfile):
		return http.StatusNotFound, errorBody{Kind: "unknown-profile", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		// the client went away; 499 in the nginx tradition
		return 499, errorBody{Kind: "cancelled", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errorBody{Kind: "deadline", Message: err.Error()}
	}
	var tl *http.MaxBytesError
	if errors.As(err, &tl) {
		return http.StatusRequestEntityTooLarge, errorBody{Kind: "too-large", Message: err.Error()}
	}
	var dl *fortd.DeadlockError
	if errors.As(err, &dl) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "deadlock", Message: err.Error(),
			Detail: map[string]any{"deadline": dl.Deadline, "blocked": len(dl.Blocked), "live": dl.Live},
		}
	}
	var ne *fortd.NodeError
	if errors.As(err, &ne) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "run", Message: err.Error(),
			Detail: map[string]any{"pid": ne.PID},
		}
	}
	var ie *fortd.InitError
	if errors.As(err, &ie) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "run", Message: err.Error(),
			Detail: map[string]any{"array": ie.Array, "values": ie.Values, "elements": ie.Elems},
		}
	}
	var pe *fortd.PanicError
	if errors.As(err, &pe) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "panic", Message: err.Error(),
			Detail: map[string]any{"pid": pe.PID},
		}
	}
	var ab *fortd.AbortError
	if errors.As(err, &ab) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "abort", Message: err.Error(),
			Detail: map[string]any{"pid": ab.PID, "origin": ab.Origin, "op": ab.Op},
		}
	}
	var cg *fortd.CongestionError
	if errors.As(err, &cg) {
		return http.StatusUnprocessableEntity, errorBody{
			Kind: "congestion", Message: err.Error(),
			Detail: map[string]any{"src": cg.Src, "dst": cg.Dst},
		}
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "line ") || strings.HasPrefix(msg, "parser:") {
		return http.StatusBadRequest, errorBody{Kind: "parse", Message: msg}
	}
	return http.StatusBadRequest, errorBody{Kind: "invalid", Message: msg}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError renders a library error as the structured JSON body. The
// request id travels in every error's detail (and the X-Request-ID
// response header, set by the middleware) so a client error report
// pins the matching daemon log line; rate-limit errors additionally
// carry an honest Retry-After derived from the token-bucket refill.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	inner := err
	var req *fortd.RequestError
	if errors.As(err, &req) {
		inner = req.Err
	}
	status, body := classify(inner)
	if id := fortd.RequestIDFrom(r.Context()); id != "" {
		if body.Detail == nil {
			body.Detail = map[string]any{}
		}
		body.Detail["requestId"] = id
	}
	var rl *fortd.RateLimitError
	if errors.As(err, &rl) {
		secs := int(math.Ceil(rl.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		if body.Detail == nil {
			body.Detail = map[string]any{}
		}
		body.Detail["retryAfterSeconds"] = secs
	}
	writeJSON(w, status, map[string]any{"error": body})
}

// server binds a Service to the HTTP mux.
type server struct {
	svc  *fortd.Service
	base fortd.Options
	tel  *telemetry
}

// newServer builds the daemon's handler tree wrapped in the telemetry
// middleware. pprofOn additionally mounts net/http/pprof under
// /debug/pprof (off by default: the profiling surface leaks heap and
// command-line contents, so it is strictly opt-in).
func newServer(svc *fortd.Service, base fortd.Options, tel *telemetry, pprofOn bool) http.Handler {
	s := &server{svc: svc, base: base, tel: tel}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /report/{id}", s.handleReport)
	mux.HandleFunc("GET /profile/{id}", s.handleProfile)
	mux.HandleFunc("GET /profiles", s.handleProfiles)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return tel.wrap(mux)
}

// remarkDTO flattens a fortd.Remark for the wire.
type remarkDTO struct {
	Kind string `json:"kind"`
	Pass string `json:"pass"`
	Proc string `json:"proc,omitempty"`
	Line int    `json:"line,omitempty"`
	Name string `json:"name"`
	Msg  string `json:"msg"`
}

// maxBodyBytes bounds a POST body, two orders of magnitude above the
// largest program the benchmark compiles (200 KB of source).
const maxBodyBytes = 32 << 20

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileDTO
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, r, fmt.Errorf("bad request body: %w", err))
		return
	}
	opts, err := req.Options.apply(s.base)
	if err != nil {
		writeError(w, r, err)
		return
	}
	res, err := s.svc.Compile(r.Context(), fortd.CompileRequest{
		Session: req.Session, Source: req.Source, Options: opts, Explain: req.Explain,
	})
	if err != nil {
		writeError(w, r, err)
		return
	}
	body := map[string]any{
		"id":          res.ID,
		"p":           res.Program.P(),
		"listing":     res.Listing,
		"report":      res.Report.String(),
		"cacheHits":   res.CacheHits,
		"cacheMisses": res.CacheMisses,
	}
	if req.Explain {
		remarks := make([]remarkDTO, 0, len(res.Remarks))
		for _, rm := range res.Remarks {
			remarks = append(remarks, remarkDTO{
				Kind: rm.Kind.String(), Pass: rm.Pass, Proc: rm.Proc,
				Line: rm.Line, Name: rm.Name, Msg: rm.Msg,
			})
		}
		body["remarks"] = remarks
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runDTO
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, r, fmt.Errorf("bad request body: %w", err))
		return
	}
	opts, err := req.Options.apply(s.base)
	if err != nil {
		writeError(w, r, err)
		return
	}
	if r.URL.Query().Get("profile") == "true" {
		req.Profile = true
	}
	out, err := s.svc.Run(r.Context(), fortd.RunRequest{
		Session: req.Session, ID: req.ID, Source: req.Source, Options: opts,
		Init: req.Init, InitScalars: req.InitScalars, Reference: req.Reference,
		Profile: req.Profile, Workload: req.Workload,
	})
	if err != nil {
		writeError(w, r, err)
		return
	}
	st := out.Result.Stats
	body := map[string]any{
		"id": out.ID,
		"stats": map[string]any{
			"time":     st.Time,
			"messages": st.Messages,
			"words":    st.Words,
			"flops":    st.Flops,
			"remaps":   st.Remaps,
			"summary":  st.String(),
		},
		"arrays": out.Result.Arrays,
	}
	if out.ProfileID != "" {
		body["profileId"] = out.ProfileID
	}
	writeJSON(w, http.StatusOK, body)
}

// handleProfile serves a stored profile artifact's canonical bytes —
// exactly what fdprof reads from a store directory, so curl output
// diffs cleanly against local artifacts.
func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p, err := s.svc.Profile(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	p.Encode(w)
}

// handleProfiles lists the stored profiles; ?program= filters by
// program content hash.
func (s *server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	list, err := s.svc.Profiles()
	if err != nil {
		writeError(w, r, err)
		return
	}
	if want := r.URL.Query().Get("program"); want != "" {
		kept := list[:0]
		for _, e := range list {
			if e.Meta.ProgramHash == want {
				kept = append(kept, e)
			}
		}
		list = kept
	}
	if list == nil {
		list = []profile.Entry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"profiles": list})
}

// handleReport serves a retained program's HTML performance page; the
// Service admits, bounds and counts it as one run (?session= names the
// rate-limited session).
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	page, err := s.svc.Page(r.Context(), fortd.PageRequest{Session: r.URL.Query().Get("session"), ID: r.PathValue("id")})
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(page)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "time": time.Now().UTC().Format(time.RFC3339)})
}

// handleReadyz is the readiness probe: it flips to 503 once the
// daemon starts draining so load balancers stop routing new work
// while in-flight requests finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.tel.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleMetrics renders the Service's registry in the Prometheus text
// format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.svc.Metrics().WriteText(w)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"service": st,
		"process": map[string]any{
			"startTime":     s.tel.start.UTC().Format(time.RFC3339),
			"uptimeSeconds": time.Since(s.tel.start).Seconds(),
			"goroutines":    runtime.NumGoroutine(),
		},
		"cache": map[string]any{
			"hits":        st.Cache.Hits,
			"misses":      st.Cache.Misses,
			"hitRate":     st.Cache.HitRate(),
			"entries":     st.Cache.Entries,
			"diskHits":    st.Cache.DiskHits,
			"diskEntries": st.Cache.DiskEntries,
			"dir":         st.Cache.Dir,
		},
	})
}
