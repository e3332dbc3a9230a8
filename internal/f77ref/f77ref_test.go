package f77ref

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd"
	"fortd/internal/parser"
	"fortd/internal/progen"
)

// agree runs src on Runner.RunReference and on the F77 reference, both
// seeded with fortd.RampInit, and reports where their main-program
// arrays differ (NaN equal to NaN). ok is false for a program that does
// not compile, which has no reference run to compare, and for a node
// program in the generated dialect, which is not Fortran.
func agree(t *testing.T, name, src string) (ok bool) {
	t.Helper()
	prog, err := fortd.Compile(src, fortd.DefaultOptions())
	if err != nil {
		return false
	}
	init := fortd.RampInit(src)
	ref, refErr := fortd.NewRunner(fortd.WithInit(init)).RunReference(prog)
	parsed, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := Run(parsed, init)
	if errors.Is(err, errNotF77) {
		return false
	}
	if (err != nil) != (refErr != nil) {
		t.Errorf("%s: F77 reference error %v, RunReference error %v", name, err, refErr)
		return true
	}
	if err != nil {
		return true
	}
	for arr, want := range ref.Arrays {
		have := got[arr]
		if len(have) != len(want) {
			t.Errorf("%s: %s has %d elements, RunReference %d", name, arr, len(have), len(want))
			continue
		}
		for i := range want {
			if have[i] != want[i] && !(math.IsNaN(have[i]) && math.IsNaN(want[i])) {
				t.Errorf("%s: %s[%d] = %v, RunReference %v", name, arr, i, have[i], want[i])
				break
			}
		}
	}
	return true
}

// TestAgreesWithRunReference holds the executor's sequential run to
// Fortran 77 on every testdata program that compiles and on progen
// seeds 0–49, with and without scalar temporaries.
func TestAgreesWithRunReference(t *testing.T) {
	compared := 0
	err := filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".f") {
			return err
		}
		b, err := os.ReadFile(path)
		if err == nil && agree(t, path, string(b)) {
			compared++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		for _, temps := range []bool{false, true} {
			g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: temps}
			if agree(t, fmt.Sprintf("progen/%02d temps=%v", seed, temps), g.Generate()) {
				compared++
			}
		}
	}
	if compared < 180 {
		t.Errorf("only %d programs compared", compared)
	}
	t.Logf("%d programs compared", compared)
}

// TestDoIndexKeepsLastValue: the root package's test of the same name
// holds the compiled run and RunReference to F77's DO exit on this
// program; here Fortran itself gives 17 after do i = 1, 16 and 5 after
// do j = 5, 1, and RunReference agrees.
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
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := got["r"]; len(r) != 2 || r[0] != 17 || r[1] != 5 {
		t.Errorf("(i, j) after the loops = %v, want [17 5]", r)
	}
	agree(t, "LASTV", src)
}
