package fortd

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// addSamplePrograms seeds f with every sample program under testdata/,
// the pipelined-computation table, testdata/pipeline (each shape the
// compiler pipelines and each way a loop falls short of one) and the
// programs it once got wrong or panicked on, testdata/known.
func addSamplePrograms(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.f"))
	more, _ := filepath.Glob(filepath.Join("testdata", "pipeline", "*.f"))
	known, _ := filepath.Glob(filepath.Join("testdata", "known", "*.f"))
	if paths = append(append(paths, more...), known...); err != nil || len(more) == 0 || len(known) == 0 {
		f.Fatal(err, more, known)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzCompile asserts the whole compile pipeline — parse, ACG
// construction, interprocedural analyses, code generation — never
// panics: arbitrary input must either compile or return an error. Each
// input is compiled twice, sequentially and through the parallel
// scheduler with a summary cache attached, so the fuzzer also exercises
// the worker pool and the cache load/store paths.
func FuzzCompile(f *testing.F) {
	addSamplePrograms(f)
	for _, src := range []string{
		Fig1Src(100, 4),
		Fig4Src(100, 4),
		Fig15Src(25, 4),
		DgefaSrc(16, 4),
		Jacobi1DSrc(64, 4, 4),
		Jacobi2DSrc(16, 2, 4),
		ADISrc(16, 2, 4, true),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		opts := DefaultOptions()
		seq, seqErr := Compile(src, opts)

		opts.Jobs = 4
		opts.Cache = NewSummaryCache()
		par, parErr := Compile(src, opts)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("sequential error %v vs parallel error %v", seqErr, parErr)
		}
		if seqErr == nil && seq.Listing() != par.Listing() {
			t.Fatal("sequential and parallel listings differ")
		}
		// warm recompile through the same cache must be error-free and
		// byte-identical when the cold compile succeeded
		if parErr == nil {
			warm, warmErr := Compile(src, opts)
			if warmErr != nil {
				t.Fatalf("warm recompile failed: %v", warmErr)
			}
			if warm.Listing() != par.Listing() {
				t.Fatal("warm recompile listing differs")
			}
		}
	})
}

// FuzzRun asserts the executor's robustness contract on whatever the
// compiler accepts: compiling and running arbitrary source under a
// wall-clock deadline never panics and never outlives the deadline, and
// a run that succeeds agrees with the sequential reference (every
// program that compiles: acg.Build rejects the storage association the
// two runs could not agree on), and a listing with broadcasts — whose "to" clauses the seeds in testdata/known and
// DgefaSrc exercise, DgefaSrc's and testdata/dgefa.f's along a ring —
// survives print → parse → print. Both runs
// start from RampInit's non-zero arrays, so a processor that combines
// the wrong copies of data cannot hide behind zeros. The seeds
// include programs with scalar temporaries (the private-scalar rule of
// internal/partition) and the three that broke the tree-walking interpreter:
// an early RETURN (silently ignored), intrinsics that indexed missing
// arguments or divided by a truncated zero (panicked a node goroutine),
// and a compute-only loop (no cancellation point, outlived any
// deadline).
func FuzzRun(f *testing.F) {
	addSamplePrograms(f)
	for _, src := range []string{
		Fig15Src(3, 4),
		DgefaSrc(8, 4),
		Jacobi2DSrc(8, 2, 4),
		ReductionSrc(16, 3),
		`
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL x(8)
      DISTRIBUTE x(BLOCK)
      call f(x, 1)
      END
      SUBROUTINE f(x, k)
      REAL x(8)
      if (k .EQ. 1) then
        x(1) = 5.0
        return
      endif
      x(1) = 7.0
      END
`, `
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL x(8)
      x(1) = MOD(5, 0.5)
      x(2) = MAX()
      x(3) = ABS() + SQRT() + first$(1, 2)
      END
`, `
      PROGRAM P
      PARAMETER (n$proc = 2)
      do i = 1, 2000000000
      enddo
      END
`,
		// RampInit panicked on a negative extent
		"PROGRAM A\nREAL A(-1)\nEND",
	} {
		f.Add(src)
	}
	// scalar temporaries: the rows of the private-scalar table and
	// random programs that assign them in partitioned loops, before
	// guarded calls and live out of their loop
	rows, err := filepath.Glob(filepath.Join("testdata", "private", "*.f"))
	if err != nil {
		f.Fatal(err)
	}
	// delayed sections anchored at one end only
	more, _ := filepath.Glob(filepath.Join("testdata", "sections", "*.f"))
	rows = append(rows, more...)
	for _, path := range rows {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range tempPrograms(8) {
		f.Add(src)
	}
	const deadline = 2 * time.Second
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src, DefaultOptions())
		if err != nil || prog.P() > 16 {
			return
		}
		// a listing whose broadcasts name their receivers prints, parses
		// and prints again to the same text
		if listing := prog.Listing(); strings.Contains(listing, "broadcast ") {
			out, err := parser.Parse(listing)
			if err != nil {
				t.Fatalf("listing does not parse: %v\n%s", err, listing)
			}
			text := ast.Print(out)
			if again, err := parser.Parse(text); err != nil || ast.Print(again) != text {
				t.Fatalf("listing changed by print → parse → print (%v):\n%s", err, text)
			}
		}
		r := NewRunner(WithDeadline(deadline), WithInit(RampInit(src)))
		start := time.Now()
		res, err := r.Run(prog)
		// the deadline aborts the machine; unwinding P node programs and
		// joining their errors takes a moment more
		if d := time.Since(start); d > 2*deadline {
			t.Fatalf("run returned after %v under a %v deadline", d, deadline)
		}
		if err != nil {
			return
		}
		ref, err := r.RunReference(prog)
		if err != nil {
			return
		}
		for name, want := range ref.Arrays {
			got := res.Arrays[name]
			if len(got) != len(want) {
				t.Fatalf("%s: %d elements, reference has %d", name, len(got), len(want))
			}
			for i := range want {
				same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i])) ||
					math.Abs(got[i]-want[i]) <= 1e-9*(1+math.Abs(want[i]))
				if !same {
					t.Fatalf("%s[%d] = %v, reference %v\n%s", name, i, got[i], want[i], prog.Listing())
				}
			}
		}
	})
}

// FuzzSPMDText runs hand-written node programs through RunSPMD under a
// wall-clock deadline: a parse error or a run error is an answer, a
// panic or a run that outlives the deadline is not, and a program that
// parses prints and parses again to the same text. The seeds are the
// hand-edited pipeline chain, the deadlock sample and the programs whose
// split-phase halves do not pair (testdata/spmd). A program for more than 16
// processors, or with a local array of more than 65 536 elements or of
// bounds known only at run time, is not run.
func FuzzSPMDText(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("testdata", "spmd", "*.spmd"))
	for _, path := range append(paths, filepath.Join("testdata", "pipeline", "chain_hand.spmd"), filepath.Join("testdata", "deadlock.f")) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	const deadline = time.Second
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		text := ast.Print(prog)
		if again, err := parser.Parse(text); err != nil || ast.Print(again) != text {
			t.Fatalf("print → parse → print changed the program (%v):\n%s", err, text)
		}
		if !smallNodeProgram(prog) {
			return
		}
		start := time.Now()
		NewRunner(WithDeadline(deadline)).RunSPMD(src, 0)
		if d := time.Since(start); d > 2*deadline {
			t.Fatalf("run returned after %v under a %v deadline", d, deadline)
		}
	})
}

// smallNodeProgram reports whether RunSPMD would run prog on at most 16
// processors with every local array's size known and at most 65 536
// elements.
func smallNodeProgram(prog *ast.Program) bool {
	if m := prog.Main(); m != nil {
		if n, ok := m.Constants()["n$proc"]; ok && (n < 1 || n > 16) {
			return false
		}
	}
	for _, u := range prog.Units {
		env := u.Constants()
		for _, sym := range u.Symbols.Symbols() {
			if sym.Kind != ast.SymArray || sym.IsFormal {
				continue
			}
			sizes, ok := sym.Extents(env)
			if !ok {
				return false
			}
			elems := 1
			for _, n := range sizes {
				if elems *= max(n, 1); n > 1<<16 || elems > 1<<16 {
					return false
				}
			}
		}
	}
	return true
}
