package profile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
)

// ErrNotFound reports a profile id with no stored artifact.
var ErrNotFound = errors.New("profile: not found")

// Entry is one stored profile's listing row.
type Entry struct {
	ID   string `json:"id"`
	Meta Meta   `json:"meta"`
	Runs int    `json:"runs"`
}

// Store persists profiles keyed by their content hash. Because the key
// is the hash of the canonical bytes, a stored artifact is immutable
// and equal runs deduplicate to one entry.
type Store interface {
	// Put stores p and returns its content-hash id. Storing an already
	// present profile is a no-op returning the same id.
	Put(p *Profile) (string, error)
	// Get returns the profile stored under id, or ErrNotFound.
	Get(id string) (*Profile, error)
	// List returns every stored profile's listing row, sorted by id.
	List() ([]Entry, error)
}

// idPattern guards store lookups against path-traversal ids: a content
// hash is exactly 64 hex digits.
var idPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// DirStore is the disk tier: one <id>.json canonical artifact file per
// profile under a directory, written with the same atomic temp+rename
// discipline as the summary cache's disk tier, so concurrent writers
// of the same profile produce identical bytes and readers never
// observe a torn file. A restarted daemon pointed at the same
// directory serves every previously stored profile.
type DirStore struct {
	dir string
}

// NewDirStore creates the directory if needed and returns the store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) path(id string) string {
	return filepath.Join(d.dir, id+".json")
}

// Put writes the canonical artifact file via an atomic rename. A file
// already under the id's name is kept only when it holds these bytes: a
// truncated or overwritten one is replaced, so a damaged artifact heals
// the next time its profile is stored.
func (d *DirStore) Put(p *Profile) (string, error) {
	buf, err := p.Marshal()
	if err != nil {
		return "", err
	}
	id := ContentID(buf)
	if old, err := os.ReadFile(d.path(id)); err == nil && bytes.Equal(old, buf) {
		return id, nil
	}
	tmp, err := os.CreateTemp(d.dir, "."+id+".tmp*")
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return "", err
	}
	if err := os.Rename(name, d.path(id)); err != nil {
		os.Remove(name)
		return "", err
	}
	return id, nil
}

// Get loads the profile stored under id. Unreadable, corrupt or
// version-mismatched files report ErrNotFound, like a cache miss.
func (d *DirStore) Get(id string) (*Profile, error) {
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	buf, err := os.ReadFile(d.path(id))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	p, err := Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return p, nil
}

// List scans the directory for entry files.
func (d *DirStore) List() ([]Entry, error) {
	names, err := filepath.Glob(filepath.Join(d.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, name := range names {
		id := filepath.Base(name)
		id = id[:len(id)-len(".json")]
		if !idPattern.MatchString(id) {
			continue
		}
		p, err := d.Get(id)
		if err != nil {
			continue // corrupt entries are invisible, not fatal
		}
		out = append(out, Entry{ID: id, Meta: p.Meta, Runs: p.Runs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// MemStoreLimit bounds a MemStore: each distinct run label is another
// artifact, so an unbounded store grows with its clients' labels.
const MemStoreLimit = 1024

// MemStore is the in-memory tier: the service's default when no
// profile directory is configured. It keeps the MemStoreLimit most
// recently stored profiles; an evicted id answers ErrNotFound. Safe for
// concurrent use.
type MemStore struct {
	mu    sync.Mutex
	m     map[string]*Profile
	order []string // ids in the order stored, oldest first
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]*Profile{}} }

// Put stores p under its content hash, evicting the oldest stored
// profile when the store is full.
func (s *MemStore) Put(p *Profile) (string, error) {
	id, err := p.ID()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		s.m[id] = p
		s.order = append(s.order, id)
		if len(s.order) > MemStoreLimit {
			delete(s.m, s.order[0])
			s.order = s.order[1:]
		}
	}
	return id, nil
}

// Get returns the profile stored under id, or ErrNotFound.
func (s *MemStore) Get(id string) (*Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return p, nil
}

// List returns the stored entries sorted by id.
func (s *MemStore) List() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.m))
	for id, p := range s.m {
		out = append(out, Entry{ID: id, Meta: p.Meta, Runs: p.Runs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
