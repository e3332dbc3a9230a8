package fortd

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestTestdataPrograms compiles every sample program under testdata/
// with all three strategies and validates the parallel execution
// against the sequential reference — the same check cmd/fdrun applies.
// These are the files shipped as user-facing samples for fdc/fdrun.
func TestTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob("testdata/*.f")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("expected sample programs, found %v", files)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			srcBytes, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)
			for _, strategy := range []Strategy{Interprocedural, Immediate, RuntimeResolution} {
				opts := DefaultOptions()
				opts.Strategy = strategy
				prog, err := Compile(src, opts)
				if err != nil {
					t.Fatalf("%v: compile: %v", strategy, err)
				}
				res, err := NewRunner().Run(prog)
				if filepath.Base(file) == "deadlock.f" {
					// the shipped deadlock sample must terminate with a
					// structured report, not hang or succeed
					var dl *DeadlockError
					if !errors.As(err, &dl) || len(dl.Blocked) != 2 {
						t.Fatalf("%v: run = %v, want 2-proc DeadlockError", strategy, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v: run: %v", strategy, err)
				}
				ref, err := NewRunner().RunReference(prog)
				if err != nil {
					t.Fatalf("%v: reference: %v", strategy, err)
				}
				for name, want := range ref.Arrays {
					got := res.Arrays[name]
					for i := range want {
						if !(math.Abs(got[i]-want[i]) <= 1e-9*(1+math.Abs(want[i]))) {
							t.Fatalf("%v: %s[%d] = %v, want %v", strategy, name, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
