package fortd

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/comm"
)

// goldenExplain compiles src with a remark collector attached and
// compares the text report against the golden file. Remarks are fully
// deterministic (no wall-clock content), so the whole report is
// locked.
func goldenExplain(t *testing.T, name, src string, opts Options) *Explain {
	t.Helper()
	ex := NewExplain()
	opts.Explain = ex
	if _, err := Compile(src, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0644); err != nil {
			t.Fatal(err)
		}
		return ex
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("optimization report differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	return ex
}

func TestGoldenExplainJacobi(t *testing.T) {
	goldenExplain(t, "jacobi_explain", Jacobi2DSrc(16, 3, 4), DefaultOptions())
}

// TestGoldenExplainDgefa locks the §9 acceptance story: under the
// interprocedural strategy the report shows idamax, dscal and daxpy
// compiled interprocedurally, with their communication vectorized at
// caller level in dgefa.
func TestGoldenExplainDgefa(t *testing.T) {
	ex := goldenExplain(t, "dgefa_explain", DgefaSrc(32, 4), DefaultOptions())

	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, callee := range []string{"idamax", "dscal", "daxpy"} {
		if !strings.Contains(out, callee) {
			t.Errorf("interprocedural report does not mention %s", callee)
		}
	}
	if !strings.Contains(out, "vectorized at caller level") {
		t.Error("interprocedural report shows no caller-level vectorized message")
	}
	if strings.Contains(out, "runtime-resolution") {
		t.Error("interprocedural report claims run-time resolution")
	}
}

// TestGoldenExplainDgefaRuntime locks the other half of the story: the
// same program compiled under the run-time resolution baseline names
// each procedure and the reason it was resolved at run time.
func TestGoldenExplainDgefaRuntime(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = RuntimeResolution
	ex := goldenExplain(t, "dgefa_explain_runtime", DgefaSrc(32, 4), opts)

	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, proc := range []string{"dgefa", "idamax", "dscal", "daxpy"} {
		if !strings.Contains(out, proc+" compiled with run-time resolution") {
			t.Errorf("runtime report does not explain %s's run-time resolution", proc)
		}
	}
	if !strings.Contains(out, "baseline strategy") {
		t.Error("runtime report does not state the reason")
	}
}

// TestExplainJSONWellFormed checks the JSON-lines exporter on a real
// compile: every line parses and carries the required fields.
func TestExplainJSONWellFormed(t *testing.T) {
	ex := NewExplain()
	opts := DefaultOptions()
	opts.Explain = ex
	if _, err := Compile(DgefaSrc(32, 4), opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d remark lines", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"kind":`) || !strings.Contains(line, `"msg":`) {
			t.Fatalf("malformed remark line: %s", line)
		}
	}
}

// TestExplainAnnotatedListing checks the annotated-source exporter
// interleaves remarks under their source lines.
func TestExplainAnnotatedListing(t *testing.T) {
	src := Jacobi2DSrc(16, 3, 4)
	ex := NewExplain()
	opts := DefaultOptions()
	opts.Explain = ex
	if _, err := Compile(src, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.WriteAnnotated(&buf, src); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "!applied") && !strings.Contains(out, "!note") {
		t.Errorf("annotated listing carries no remarks:\n%s", out)
	}
	// the source must survive verbatim
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.Contains(out, line) {
			t.Errorf("annotated listing lost source line %q", line)
		}
	}
}

// TestExplainTwoDistributedDimensions: DISTRIBUTE a(BLOCK,BLOCK) is not
// rejected — the array runs replicated (DESIGN deviation 4) — and the
// Missed remark says why, not that its bounds were not constants.
func TestExplainTwoDistributedDimensions(t *testing.T) {
	src := `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL a(8,8)
      DISTRIBUTE a(BLOCK,BLOCK)
      do i = 1, 8
        do j = 1, 8
          a(i,j) = i + j
        enddo
      enddo
      END
`
	ex := NewExplain()
	opts := DefaultOptions()
	opts.Explain = ex
	prog, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "missed  core       distribute         no distribution descriptor built for a (BLOCK,BLOCK): two distributed dimensions (deviation 4) — the array stays replicated"
	if out := buf.String(); !strings.Contains(out, want) || strings.Contains(out, "compile-time constants") {
		t.Errorf("report lacks %q:\n%s", want, out)
	}
	r := NewRunner()
	res, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.RunReference(prog)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Arrays["a"], ref.Arrays["a"]); d != 0 || res.Stats.Messages != 0 {
		t.Errorf("replicated run: %d messages, differs from the reference by %g", res.Stats.Messages, d)
	}
}

// TestExplainRingBroadcast: dgefa's pivot broadcast, whose CYCLIC root
// rotates with k and whose "to" clause starts at the next root, travels
// along a ring and says what it saves; the same broadcast under BLOCK,
// whose root does not rotate every step, stays a tree without a word; and
// a rotating root that must reach every processor
// (testdata/known/bcast_replicated_use.f) stays a tree and says why.
func TestExplainRingBroadcast(t *testing.T) {
	dgefa, err := os.ReadFile(filepath.Join("testdata", "dgefa.f"))
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := os.ReadFile(filepath.Join("testdata", "known", "bcast_replicated_use.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		line      string // the broadcast's line of the listing
		remark    string // the comm ring remark ("" none)
	}{
		{"dgefa", string(dgefa), "broadcast a((k + 1):64,k) from MOD((k - 1),4) to a(:,(k + 1):n) ring",
			"applied comm       ring               broadcast of a a[k+1:64,k] travels along a ring: its first receiver, the next iteration's root, receives after 2α + βw"},
		{"BLOCK", strings.Replace(string(dgefa), "a(:,CYCLIC)", "a(:,BLOCK)", 1), "broadcast a((k + 1):64,k) from ((k - 1) / 16) to a(:,(k + 1):n)", ""},
		{"no to clause", string(replicated), "broadcast a((k + 1),k) from MOD((k - 1),4)",
			"missed  comm       ring               broadcast of a a[2:8,1:7] from a rotating root stays a binomial tree, not a ring: it has no to clause to make the next root its first receiver (no loop lies between the message and its reference)"},
	} {
		ex := NewExplain()
		opts := DefaultOptions()
		opts.Explain = ex
		prog, err := Compile(c.src, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ex.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		listing, report := prog.Listing(), buf.String()
		if !strings.Contains(listing, " "+c.line+"\n") {
			t.Errorf("%s: listing lacks the line %q:\n%s", c.name, c.line, listing)
		}
		if c.remark == "" && strings.Contains(report, " ring ") || !strings.Contains(report, c.remark) {
			t.Errorf("%s: report lacks %q:\n%s", c.name, c.remark, report)
		}
	}
}

// TestExplainSameIterationPin: a shift whose cells the same iteration
// writes before it reads them (testdata/known/hoist_same_iter.f) stays
// inside the loop, and both remarks say so instead of naming a carried
// dependence or the loop's direction.
func TestExplainSameIterationPin(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "known", "hoist_same_iter.f"))
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplain()
	opts := DefaultOptions()
	opts.Explain = ex
	if _, err := Compile(string(src), opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	for _, want := range []string{
		"placed inside loop i (one message per iteration): " + comm.WhySameIter,
		"loop i not pipelined on a(i+1): " + comm.WhyPipeSameIter,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, comm.WhyCarriedDep) || strings.Contains(report, comm.WhyPipeAgainst) {
		t.Errorf("report names a carried dependence or the loop's direction:\n%s", report)
	}
}
