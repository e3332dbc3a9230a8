package fortd

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// TestKnownWrongAnswers runs testdata/known, one row per program the
// compiler once got wrong (ROADMAP item 1(b)): under every strategy,
// with the schedule pass on and off, at five machine sizes and at every
// remap level (item 1(c)), a row
// either equals the sequential reference or — if its first line reads
// "! error: text" — is rejected by the compiler with an error that
// contains text and names the procedure and line. A row whose first
// line reads "! run-error: text" compiles and fails that way when run.
// A "! want: b(1) = 5" line pins what Fortran 77 leaves in an element
// (a(:): every element of a) on the compiled run and the reference
// alike, so a row both executors get wrong fails too; a "! listing
// <hash>" line pins the listing under the default options byte for
// byte. None may panic.
func TestKnownWrongAnswers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "known", "*.f"))
	if err != nil || len(files) < 4 {
		t.Fatalf("testdata/known: %v %v", files, err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src, name := string(buf), strings.TrimSuffix(filepath.Base(f), ".f")
		first, _, _ := strings.Cut(src, "\n")
		wantErr, rejected := strings.CutPrefix(first, "! error: ")
		wantRunErr, fails := strings.CutPrefix(first, "! run-error: ")
		pins := knownPins(t, name, src)
		if m := listingLine.FindStringSubmatch(src); m != nil {
			prog, err := Compile(src, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := sha([]byte(prog.Listing())); got != m[1] {
				t.Errorf("%s: listing %s, pinned %s\n%s", name, got, m[1], prog.Listing())
			}
		}
		for _, st := range digestStrategies {
			for _, overlap := range []bool{true, false} {
				for _, level := range []RemapLevel{RemapNone, RemapLive, RemapHoist, RemapKills} {
					for _, p := range []int{1, 3, 4, 6, 16} {
						opts := DefaultOptions().WithOverlap(overlap)
						opts.Strategy, opts.P, opts.RemapOpt = st.s, p, level
						prog, err := Compile(src, opts)
						if rejected {
							if err == nil || !strings.Contains(err.Error(), wantErr) || !strings.Contains(err.Error(), " line ") {
								t.Fatalf("%s %s P=%d remap=%s: compile error %v, want one with a line that contains %q", name, st.name, p, level, err, wantErr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s %s P=%d remap=%s: %v", name, st.name, p, level, err)
						}
						r := NewRunner(WithInit(RampInit(src)))
						res, err := r.Run(prog)
						if fails {
							if p > 1 && (err == nil || !strings.Contains(err.Error(), wantRunErr)) {
								t.Fatalf("%s %s overlap=%v P=%d remap=%s: run error %v, want %q", name, st.name, overlap, p, level, err, wantRunErr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s %s overlap=%v P=%d remap=%s: %v\n%s", name, st.name, overlap, p, level, err, prog.Listing())
						}
						ref, err := r.RunReference(prog)
						if err != nil {
							t.Fatal(err)
						}
						for _, pin := range pins {
							for run, res := range map[string]*Result{"compiled": res, "reference": ref} {
								got := res.Arrays[pin.array]
								for i := pin.first; i <= pin.last; i++ {
									if i >= len(got) || got[i] != pin.value {
										t.Errorf("%s %s overlap=%v P=%d remap=%s: %s run: want %s, holds %v\n%s",
											name, st.name, overlap, p, level, run, pin.line, got, prog.Listing())
										break
									}
								}
							}
						}
						for arr, want := range ref.Arrays {
							if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
								t.Errorf("%s %s overlap=%v P=%d remap=%s: %s differs from the sequential reference by %g\n%s",
									name, st.name, overlap, p, level, arr, d, prog.Listing())
							}
						}
					}
				}
			}
		}
	}
}

// TestDoIndexKeepsLastValue pins F77's DO exit: after a loop its index
// holds lo + trip·s, 17 after do i = 1, 16, and 5 after do j = 5, 1,
// which runs no iteration (ast.Exit), on the compiled run and on the
// reference; internal/f77ref holds the same program to an interpreter
// that shares no lowering with either.
func TestDoIndexKeepsLastValue(t *testing.T) {
	const src = `
      PROGRAM LASTV
      PARAMETER (n$proc = 4)
      REAL a(16), r(2)
      DISTRIBUTE a(BLOCK)
      j = 7
      do i = 1, 16
        a(i) = i
      enddo
      do j = 5, 1
        a(j) = 0.0
      enddo
      r(1) = i
      r(2) = j
      END
`
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	for _, run := range []struct {
		name string
		run  func(*Program) (*Result, error)
	}{{"compiled", r.Run}, {"reference", r.RunReference}} {
		res, err := run.run(prog)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := res.Arrays["r"]; len(got) != 2 || got[0] != 17 || got[1] != 5 {
			t.Errorf("%s: (i, j) after the loops = %v, want [17 5]\n%s", run.name, got, prog.Listing())
		}
	}
}

// TestDoStepReadIsCommunicated: a DO's step that reads a distributed
// element is one of the statement's references, like its bounds, so
// the owner broadcasts it before the loop; without the message every
// other processor stepped by what it did not store.
func TestDoStepReadIsCommunicated(t *testing.T) {
	const src = `
      PROGRAM STEPREAD
      PARAMETER (n$proc = 4)
      REAL x(100)
      INTEGER k(100)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE k(BLOCK)
      do i = 1, 100
        k(i) = 3
        x(i) = i
      enddo
      do i = 1, 95, k(90)
        x(i) = x(i+5)
      enddo
      END
`
	for _, st := range digestStrategies {
		for _, p := range []int{1, 3, 4} {
			opts := DefaultOptions()
			opts.Strategy, opts.P = st.s, p
			prog, err := Compile(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(WithInit(RampInit(src)))
			res, err := r.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := r.RunReference(prog)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(res.Arrays["x"], ref.Arrays["x"]); d != 0 {
				t.Errorf("%s P=%d: x differs from the sequential reference by %g\n%s", st.name, p, d, prog.Listing())
			}
		}
	}
}

// TestDoTruncatesRealBounds: F77 converts a DO's parameters to its
// INTEGER index by truncation, so do i = 1, x with x = 2.9 runs twice
// and do i = 1, .7 runs no iteration; rounding ran them three times and
// once, on the compiled run and the reference. A REAL index counts
// INT((hi − lo + s)/s) iterations, so do t = 1, x runs twice as well.
func TestDoTruncatesRealBounds(t *testing.T) {
	const src = `
      PROGRAM REALDO
      PARAMETER (n$proc = 4)
      REAL b(8)
      DISTRIBUTE b(BLOCK)
      do i = 1, 8
        b(i) = 0.0
      enddo
      x = 2.9
      do i = 1, x
        b(i) = 5.0
      enddo
      do i = 1, .7
        b(8) = 5.0
      enddo
      do t = 1, x
        b(7) = b(7) + 1.0
      enddo
      END
`
	want := []float64{5, 5, 0, 0, 0, 0, 2, 0}
	for _, st := range digestStrategies {
		opts := DefaultOptions()
		opts.Strategy = st.s
		prog, err := Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		for _, run := range []struct {
			name string
			run  func(*Program) (*Result, error)
		}{{"compiled", r.Run}, {"reference", r.RunReference}} {
			res, err := run.run(prog)
			if err != nil {
				t.Fatalf("%s %s: %v", st.name, run.name, err)
			}
			if got := res.Arrays["b"]; !slices.Equal(got, want) {
				t.Errorf("%s %s: b = %v, want %v\n%s", st.name, run.name, got, want, prog.Listing())
			}
		}
	}
}

// knownPin is one "! want: name(sub) = value" line of a known row: the
// value elements first..last (0-based, of a rank-1 main-program array)
// hold after the run.
type knownPin struct {
	line        string
	array       string
	first, last int
	value       float64
}

var (
	wantLine    = regexp.MustCompile(`(?m)^! want: (\w+)\((\d+|:)\) = (\S+)$`)
	listingLine = regexp.MustCompile(`(?m)^! listing ([0-9a-f]{32})$`)
)

func knownPins(t *testing.T, name, src string) []knownPin {
	lines := wantLine.FindAllStringSubmatch(src, -1)
	if lines == nil {
		return nil
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	main := prog.Main()
	var pins []knownPin
	for _, m := range lines {
		sym := main.Symbols.Lookup(m[1])
		value, verr := strconv.ParseFloat(m[3], 64)
		if sym == nil || len(sym.Dims) != 1 || verr != nil {
			t.Fatalf("%s: %q does not pin an element of a rank-1 array of the main program", name, m[0])
		}
		lo, _ := ast.EvalInt(sym.Dims[0].Lo, main.Constants())
		hi, _ := ast.EvalInt(sym.Dims[0].Hi, main.Constants())
		pin := knownPin{line: strings.TrimPrefix(m[0], "! want: "), array: m[1], first: 0, last: hi - lo, value: value}
		if m[2] != ":" {
			i, _ := strconv.Atoi(m[2])
			pin.first, pin.last = i-lo, i-lo
		}
		pins = append(pins, pin)
	}
	return pins
}
