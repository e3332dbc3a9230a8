package fortd

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKnownWrongAnswers runs testdata/known, one row per program the
// compiler once got wrong (ROADMAP item 1(b)): under every strategy,
// with the schedule pass on and off, at five machine sizes, a row
// either equals the sequential reference or — if its first line reads
// "! error: text" — is rejected by the compiler with an error that
// contains text and names the procedure and line. A row whose first
// line reads "! run-error: text" compiles and fails that way when run.
// None may panic.
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
		for _, st := range digestStrategies {
			for _, overlap := range []bool{true, false} {
				for _, p := range []int{1, 3, 4, 6, 16} {
					opts := DefaultOptions().WithOverlap(overlap)
					opts.Strategy, opts.P = st.s, p
					prog, err := Compile(src, opts)
					if rejected {
						if err == nil || !strings.Contains(err.Error(), wantErr) || !strings.Contains(err.Error(), " line ") {
							t.Fatalf("%s %s P=%d: compile error %v, want one with a line that contains %q", name, st.name, p, err, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s %s P=%d: %v", name, st.name, p, err)
					}
					r := NewRunner(WithInit(RampInit(src)))
					res, err := r.Run(prog)
					if fails {
						if p > 1 && (err == nil || !strings.Contains(err.Error(), wantRunErr)) {
							t.Fatalf("%s %s overlap=%v P=%d: run error %v, want %q", name, st.name, overlap, p, err, wantRunErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s %s overlap=%v P=%d: %v\n%s", name, st.name, overlap, p, err, prog.Listing())
					}
					ref, err := r.RunReference(prog)
					if err != nil {
						t.Fatal(err)
					}
					for arr, want := range ref.Arrays {
						if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
							t.Errorf("%s %s overlap=%v P=%d: %s differs from the sequential reference by %g\n%s",
								name, st.name, overlap, p, arr, d, prog.Listing())
						}
					}
				}
			}
		}
	}
}
