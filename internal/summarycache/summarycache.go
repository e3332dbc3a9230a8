// Package summarycache is the persistent per-procedure summary cache
// that makes recompilation incremental (§4/§8): the unit of reuse in an
// interprocedural compilation system is the per-procedure summary, and
// the ACG dictates which summaries depend on which. Each procedure's
// phase-3 artifacts — its generated unit, code-generation counters,
// delayed partition constraints, delayed communication, decomposition
// summary and optimization remarks — are stored under a content hash
// of the procedure's own source combined with the hashes of everything
// its compilation consumed (reaching decompositions, propagated
// constants and the caller-visible summaries of its callees). A re-run after editing one procedure therefore re-analyzes
// only the invalidated cone of the ACG: the key is §8's recompilation
// test, so the misses of a compile are the recompile set
// (Compilation.CacheMisses).
//
// In memory only, it also keeps parsed units (the parser's Memo, by
// text and first line) with their digests and local facts (Local), each
// unit's schedule and each listed unit's text, so a warm compile redoes
// only what changed.
//
// The cache lives for the process and may be shared across any number
// of compilations (it is safe for concurrent use by the parallel
// compile pipeline's workers). A nil *Cache disables caching; every
// method is nil-safe.
package summarycache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/explain"
	"fortd/internal/livedecomp"
	"fortd/internal/overlap"
	"fortd/internal/parser"
	"fortd/internal/partition"
	"fortd/internal/sideeffect"
	"fortd/internal/spmd"
)

// Entry holds every artifact of one procedure's phase-3 compilation;
// it is also the phase-3 task's output, which a miss stores as is.
// Entries are immutable once stored, and so is everything they point
// to: the pipeline splices Unit into every program that hits it, and
// no pass writes a statement or unit it did not create, so neither the
// unit nor the summary structures are ever copied.
type Entry struct {
	// Key is the content hash the entry is stored under.
	Key string
	// Proc is the compiled procedure's name (clones under clone names).
	Proc string
	// Unit is the generated unit in its blocking form (the schedule pass
	// replaces it, never rewrites it; Schedule keeps what it made of it).
	// It may share statements with the source it was compiled from. The
	// disk tier stores it as printed source.
	Unit *ast.Procedure `json:"-"`
	// Result carries the code-generation counters.
	Result codegen.Result
	// PartDelayed, CommDelayed and DecompSum are the caller-visible
	// summaries the callers' tasks read.
	PartDelayed map[string]*partition.Constraint
	CommDelayed []*comm.Delayed
	DecompSum   *livedecomp.Summary
	// MainDists holds the main program's initial distributions (main
	// program entries only).
	MainDists map[string]*decomp.Dist
	// Remarks are the optimization remarks the procedure's passes
	// emitted, replayed verbatim on a hit so a warm compile's report is
	// byte-identical to a cold one.
	Remarks []explain.Remark
	// Runtime marks a procedure compiled with run-time resolution.
	Runtime bool
}

// Stats is a point-in-time view of the cache's cumulative counters.
type Stats struct {
	Hits, Misses int64
	Entries      int
	// DiskHits counts the subset of Hits served by loading an entry
	// file from the disk tier (zero for memory-only caches). DiskEntries
	// is the number of entry files currently in the cache directory, and
	// Dir names it ("" for memory-only caches).
	DiskHits    int64
	DiskEntries int
	Dir         string
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a content-addressed store of procedure compilation entries,
// optionally backed by a disk tier (see Open). The zero value is ready
// to use; a nil *Cache disables caching. A Cache is safe for concurrent
// use: any number of goroutines (and, with a disk tier, processes) may
// Get and Put simultaneously.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*Entry
	units    map[parser.Chunk]*ast.Procedure
	digests  map[*ast.Procedure]string // of the units it parsed
	scheds   map[string]*Scheduled
	texts    map[*ast.Procedure]string // of the units it printed
	codes    map[codeKey]*spmd.Code    // of the units it lowered
	locals   map[*ast.Procedure]*Local // of the units it parsed
	hits     int64
	misses   int64
	diskHits int64
	disk     *disk // nil: memory-only
}

// New returns an empty enabled cache.
func New() *Cache { return &Cache{} }

// Open returns a cache backed by the entry files under dir, creating
// the directory as needed. Entries stored by earlier processes are
// served as disk hits (loaded once, then held in memory); fresh
// entries are written through, so concurrent and future compile
// servers on the same directory stay warm. The cache keys already
// cover everything a compilation consumes, so processes sharing a
// directory never need to coordinate invalidation: an edited procedure
// simply hashes to a new key (§8 run as a cache, across processes).
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("summarycache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("summarycache: %w", err)
	}
	return &Cache{disk: &disk{dir: dir}}, nil
}

// Enabled reports whether lookups can hit.
func (c *Cache) Enabled() bool { return c != nil }

// Get returns the entry stored under key, counting a hit or miss. With
// a disk tier, a memory miss probes the entry file and promotes it into
// memory on success (counted as a hit and a disk hit).
func (c *Cache) Get(key string) *Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.hits++
		c.mu.Unlock()
		return e
	}
	if c.disk == nil {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	// load outside the lock: disk I/O and reparsing must not serialize
	// the parallel compile pipeline's workers
	e := c.disk.load(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if have := c.entries[key]; have != nil {
		// another worker promoted the same key concurrently; keep the
		// first copy so every consumer shares one immutable entry
		c.hits++
		return have
	}
	if e == nil {
		c.misses++
		return nil
	}
	set(&c.entries, key, e)
	c.hits++
	c.diskHits++
	return e
}

// Put stores an entry under e.Key, overwriting any previous entry and
// writing through to the disk tier when one is attached. Entries whose
// unit cannot be persisted faithfully stay memory-only (see disk.store).
func (c *Cache) Put(e *Entry) {
	if c == nil || e == nil || e.Key == "" {
		return
	}
	c.mu.Lock()
	set(&c.entries, e.Key, e)
	d := c.disk
	c.mu.Unlock()
	if d != nil {
		d.store(e) // best-effort: a failed write degrades to memory-only
	}
}

// Unit and KeepUnit make the cache the parser's memo of source units
// (parser.Memo): a warm compile parses only the units whose text or
// first line changed. Units are memory-only and uncounted in Stats.
func (c *Cache) Unit(chunk parser.Chunk) *ast.Procedure {
	if c == nil {
		return nil
	}
	return get(c, &c.units, chunk)
}

// KeepUnit stores u as the unit parsed from chunk, and u's digest.
func (c *Cache) KeepUnit(chunk parser.Chunk, u *ast.Procedure) {
	if c != nil {
		put(c, &c.digests, u, unitDigest(u))
		put(c, &c.units, chunk, u)
	}
}

// UnitDigest fingerprints u's printed form and statement lines for a
// key. A unit the cache parsed was printed once, when it was kept.
func (c *Cache) UnitDigest(u *ast.Procedure) string {
	if c != nil {
		if d := get(c, &c.digests, u); d != "" {
			return d
		}
	}
	return unitDigest(u)
}

func unitDigest(u *ast.Procedure) string {
	// printed source carries no positions; fingerprint statement lines
	// separately so cached remark positions always match the input
	var lines []byte
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		lines = strconv.AppendInt(append(lines, ','), int64(s.Pos().Line), 10)
		return true
	})
	return Hash(string(ast.AppendProcedure(nil, u)), string(lines))
}

// Local is what the local pass of each whole-program phase derives from
// one unit's text alone (§4), for propagation to read: the unit's index,
// which every later pass reads its statements, references and
// definitions from, its own side effects, its section summary if it has
// no CALL (nil otherwise) and its subscripts' constant offsets. Like an
// entry, it is never written.
type Local struct {
	Index       *ast.Index
	Effects     *sideeffect.Summary
	Sections    *comm.SectionSummary
	Offsets     map[string]*overlap.Offsets
	SectionsKey string // Sections.Key(), which callers' keys hash
}

// Local returns u's local facts and whether this call computed them: it
// computes them once per unit the cache parsed, until Reset, and keeps
// no other unit's (a clone, a renamed caller, a CompileProgram input).
func (c *Cache) Local(u *ast.Procedure) (*Local, bool) {
	if c != nil {
		if l := get(c, &c.locals, u); l != nil {
			return l, false
		}
	}
	ix := ast.NewIndex(u)
	l := &Local{Index: ix, Effects: sideeffect.Own(u), Sections: comm.LocalSections(u, ix), Offsets: overlap.LocalOffsets(u, ix)}
	l.SectionsKey = l.Sections.Key()
	if c != nil && get(c, &c.digests, u) != "" {
		put(c, &c.locals, u, l)
	}
	return l, true
}

// Scheduled is what the schedule pass made of one generated unit.
type Scheduled struct {
	Unit        *ast.Procedure // as rescheduled; nil: left as it was
	Remarks     []explain.Remark
	Sites, Tags int // Applied sites, post/wait tags used
}

// Schedule returns what the schedule pass made of a unit whose chain
// key is chain and whose first tag follows tag: the schedule kept for
// the two, or else the one run makes, which it keeps.
func (c *Cache) Schedule(chain string, tag int, run func() *Scheduled) *Scheduled {
	if c == nil {
		return run()
	}
	return memo(c, &c.scheds, Hash(chain, strconv.Itoa(tag)), run)
}

// Listing is ast.Print(prog), printing each unit once until Reset: the
// listing of a compile against the cache prints the units new to it.
func (c *Cache) Listing(prog *ast.Program) string {
	if c == nil {
		return ast.Print(prog)
	}
	texts := make([]string, len(prog.Units))
	for i, u := range prog.Units {
		texts[i] = memo(c, &c.texts, u, func() string { return string(ast.AppendProcedure(nil, u)) })
	}
	return strings.Join(texts, "\n")
}

// codeKey is a unit lowered for a machine of nproc processors.
type codeKey struct {
	unit  *ast.Procedure
	nproc int
}

// Codes is the memo spmd.Lower takes unit code from until Reset (nil for
// a nil cache: Lower lowers every unit).
func (c *Cache) Codes() spmd.Memo {
	if c == nil {
		return nil
	}
	return func(u *ast.Procedure, nproc int, lower func() *spmd.Code) *spmd.Code {
		return memo(c, &c.codes, codeKey{u, nproc}, lower)
	}
}

// get, put and memo use one of c's maps under c's lock; memo stores what
// compute returns if k has no value. set is put for a caller holding it.
func get[K comparable, V any](c *Cache, m *map[K]V, k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return (*m)[k]
}

func put[K comparable, V any](c *Cache, m *map[K]V, k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set(m, k, v)
}

func memo[K, V comparable](c *Cache, m *map[K]V, k K, compute func() V) V {
	if v := get(c, m, k); v != *new(V) {
		return v
	}
	v := compute()
	put(c, m, k, v)
	return v
}

func set[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
}

// Stats returns the cumulative hit/miss counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := Stats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries), DiskHits: c.diskHits}
	d := c.disk
	c.mu.Unlock()
	if d != nil {
		s.Dir = d.dir
		s.DiskEntries = d.entries()
	}
	return s
}

// Reset drops all in-memory entries, source units and counters (the
// cache stays enabled; entry files in the disk tier are left in place).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries, c.units, c.digests, c.scheds, c.texts, c.locals, c.codes = nil, nil, nil, nil, nil, nil, nil
	c.hits, c.misses, c.diskHits = 0, 0, 0
	c.mu.Unlock()
}

// Hasher accumulates canonical key material. Parts are length-prefix
// separated so distinct part lists can never collide by concatenation.
type Hasher struct {
	h [32]byte
	b []byte
}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher { return &Hasher{} }

// Add appends parts to the key material.
func (h *Hasher) Add(parts ...string) {
	for _, p := range parts {
		var n [4]byte
		ln := len(p)
		n[0], n[1], n[2], n[3] = byte(ln>>24), byte(ln>>16), byte(ln>>8), byte(ln)
		h.b = append(h.b, n[:]...)
		h.b = append(h.b, p...)
	}
}

// Sum returns the hex digest of everything added so far.
func (h *Hasher) Sum() string {
	sum := sha256.Sum256(h.b)
	return hex.EncodeToString(sum[:])
}

// Hash is shorthand for hashing a fixed part list.
func Hash(parts ...string) string {
	h := NewHasher()
	h.Add(parts...)
	return h.Sum()
}
