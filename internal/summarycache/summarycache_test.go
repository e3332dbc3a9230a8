package summarycache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", got)
	}
	c.Reset()
	if c.Len() != 0 || c.Stats().Hits != 0 || c.Stats().Misses != 0 {
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
	if c.Len() != 0 {
		t.Error("nil cache Len != 0")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("nil cache Stats = %+v", st)
	}
	if st := c.Stats(); st.HitRate() != 0 {
		t.Errorf("nil cache HitRate = %v", st.HitRate())
	}
	c.Reset() // must not panic
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
	if c.Len() != 17 {
		t.Fatalf("Len = %d, want 17", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestHasherAddFuncIsAdd: a part streamed into the key material hashes
// exactly like the same bytes added as a string, so keys (and disk
// caches written with them) did not move when procKey stopped building
// the printed procedure first.
func TestHasherAddFuncIsAdd(t *testing.T) {
	for _, part := range []string{"", "x", strings.Repeat("      do i = 1,n\n", 5000)} {
		a, b := NewHasher(), NewHasher()
		a.Add("src", part, "tail")
		b.Add("src")
		b.AddFunc(func(dst []byte) []byte { return append(dst, part...) })
		b.Add("tail")
		if a.Sum() != b.Sum() {
			t.Errorf("part of %d bytes: AddFunc %s, Add %s", len(part), b.Sum(), a.Sum())
		}
	}
}
