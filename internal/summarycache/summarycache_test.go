package summarycache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"fortd/internal/parser"
)

func TestHashPartsAreLengthPrefixed(t *testing.T) {
	// concatenation-ambiguous inputs must hash differently
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Error(`Hash("ab","c") == Hash("a","bc")`)
	}
	if Hash("a", "") == Hash("", "a") {
		t.Error(`Hash("a","") == Hash("","a")`)
	}
	if Hash("x") == Hash("x", "") {
		t.Error(`Hash("x") == Hash("x","")`)
	}
}

func TestHashDeterministic(t *testing.T) {
	h1 := NewHasher()
	h1.Add("src", "body", "p", "4")
	h2 := NewHasher()
	h2.Add("src", "body")
	h2.Add("p", "4")
	if h1.Sum() != h2.Sum() {
		t.Error("incremental Add changes the hash")
	}
	if h1.Sum() != h1.Sum() {
		t.Error("Sum is not repeatable")
	}
	if Hash("src", "body", "p", "4") != h1.Sum() {
		t.Error("Hash shorthand disagrees with Hasher")
	}
}

func TestCacheBasics(t *testing.T) {
	c := New()
	if !c.Enabled() {
		t.Fatal("New cache not enabled")
	}
	if got := c.Get("k"); got != nil {
		t.Fatalf("Get on empty cache = %v", got)
	}
	c.Put(&Entry{Key: "k", Proc: "foo"})
	e := c.Get("k")
	if e == nil || e.Proc != "foo" {
		t.Fatalf("Get after Put = %+v", e)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("Entries = %d", c.Stats().Entries)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	c.Reset()
	if c.Stats().Entries != 0 || c.Stats().Hits != 0 || c.Stats().Misses != 0 {
		t.Fatalf("Reset left %+v", c.Stats())
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if c.Enabled() {
		t.Error("nil cache reports enabled")
	}
	if c.Get("k") != nil {
		t.Error("nil cache Get != nil")
	}
	c.Put(&Entry{Key: "k"}) // must not panic
	if c.Stats().Entries != 0 {
		t.Error("nil cache Len != 0")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("nil cache Stats = %+v", st)
	}
	if st := c.Stats(); st.HitRate() != 0 {
		t.Errorf("nil cache HitRate = %v", st.HitRate())
	}
	c.Reset() // must not panic
	ran := 0
	for i := 0; i < 2; i++ {
		c.Schedule("k", 0, func() *Scheduled { ran++; return &Scheduled{} })
	}
	if ran != 2 {
		t.Error("nil cache kept a schedule")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				if e := c.Get(key); e == nil {
					c.Put(&Entry{Key: key, Proc: fmt.Sprintf("p%d", w)})
				}
			}
		}()
	}
	wg.Wait()
	if c.Stats().Entries != 17 {
		t.Fatalf("Entries = %d, want 17", c.Stats().Entries)
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestDiskDrills: what a crash, an older build or a vanished directory
// can leave under a cache directory reads as a miss — Get is nil and
// counted — nothing panics, and a Put that cannot write degrades to
// memory-only without leaving its temp file behind. chmod is not among
// the drills: it is a no-op for root.
func TestDiskDrills(t *testing.T) {
	unit, err := parser.ParseProcedure("      SUBROUTINE S(x)\n      REAL x(8)\n      x(1) = 1.0\n      END\n")
	if err != nil {
		t.Fatal(err)
	}
	entry := &Entry{Key: Hash("drill"), Proc: "S", Unit: unit}
	for _, tc := range []struct {
		name string
		// damage is applied to the directory after one Put through
		// another cache on it and after Open of the cache under test;
		// file is the stored entry's path
		damage func(t *testing.T, dir, file string)
	}{
		{"truncated entry", func(t *testing.T, dir, file string) {
			if err := os.Truncate(file, 40); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong format", func(t *testing.T, dir, file string) {
			buf, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Replace(buf, []byte(fmt.Sprintf(`"Format":%d`, diskFormat)), []byte(`"Format":1`), 1)
			if bytes.Equal(old, buf) {
				t.Fatalf("entry does not record format %d", diskFormat)
			}
			if err := os.WriteFile(file, old, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"write killed before its rename", func(t *testing.T, dir, file string) {
			// what store leaves when it dies between temp and rename
			if err := os.Rename(file, filepath.Join(dir, "."+entry.Key+".tmp123")); err != nil {
				t.Fatal(err)
			}
		}},
		{"directory replaced by a file", func(t *testing.T, dir, file string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"entry path taken by a directory", func(t *testing.T, dir, file string) {
			// the temp file is written and the rename onto file fails
			if err := os.Remove(file); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(file, "child"), 0o777); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			writer, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			writer.Put(entry)
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.DiskEntries != 1 {
				t.Fatalf("entry was not persisted: %+v", st)
			}
			tc.damage(t, dir, c.disk.path(entry.Key))
			temps := func() []string {
				names, _ := filepath.Glob(filepath.Join(dir, ".*.tmp*"))
				return names
			}
			before := temps()

			if e := c.Get(entry.Key); e != nil {
				t.Errorf("Get = %+v, want a miss", e)
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.DiskHits != 0 {
				t.Errorf("Stats = %+v, want one miss and no hit", st)
			}
			c.Put(entry)
			if e := c.Get(entry.Key); e != entry {
				t.Errorf("Get after Put = %+v, want the entry from memory", e)
			}
			if after := temps(); len(after) != len(before) {
				t.Errorf("Put left a temp file behind: %v (before: %v)", after, before)
			}
		})
	}
}

// TestUnitDigestIsTheUnits: the digest the cache keeps of a unit it
// parsed is the one a copy parsed apart gets, with or without a cache,
// so a key does not depend on how its unit was parsed; the same text a
// line further down gets another.
func TestUnitDigestIsTheUnits(t *testing.T) {
	src := "      PROGRAM P\n      REAL a(8)\n      a(1) = 1.0\n      END\n"
	c := New()
	var digests []string
	for i, text := range []string{src, src, "\n" + src} {
		memo := c
		if i > 0 {
			memo = nil
		}
		prog, err := parser.ParseMemo(text, memo)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, c.UnitDigest(prog.Units[0]), memo.UnitDigest(prog.Units[0]))
	}
	for i, d := range digests[:4] {
		if d != digests[0] {
			t.Errorf("digest %d is %s, the kept one %s", i, d, digests[0])
		}
	}
	if digests[4] == digests[0] {
		t.Error("a unit whose lines moved kept its digest")
	}
}

// TestDiskEntryKeys: an entry file's top-level keys are format 5's, so
// files written before Entry became the disk entry's body would still
// load; format 6 changed only what a delayed message holds.
// The unit is stored as printed source only.
func TestDiskEntryKeys(t *testing.T) {
	unit, err := parser.ParseProcedure("      SUBROUTINE S(x)\n      REAL x(8)\n      x(1) = 1.0\n      END\n")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(&diskEntry{Format: diskFormat, UnitSrc: printUnit(unit), Entry: Entry{Key: "k", Proc: "S", Unit: unit}})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"CommDelayed", "DecompSum", "Format", "Key", "MainDists", "PartDelayed", "Proc", "Remarks", "Result", "Runtime", "UnitSrc"}
	if !slices.Equal(keys, want) {
		t.Errorf("entry file keys %v, want %v", keys, want)
	}
	if diskFormat != 6 {
		t.Errorf("diskFormat = %d, want 6: the key set did not change", diskFormat)
	}
}
