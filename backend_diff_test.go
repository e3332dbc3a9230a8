package fortd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fortd/internal/trace/analyze"
)

// backendRun is one (workload, P, backend) execution's full observable
// surface: the sorted trace exports, the analyze text, the machine
// statistics and the assembled arrays.
type backendRun struct {
	jsonl   []byte
	text    []byte
	analyze []byte
	stats   Stats
	arrays  map[string][]float64
}

func runOnBackend(t *testing.T, prog *Program, init map[string][]float64, cfg MachineConfig, plan *FaultPlan) backendRun {
	t.Helper()
	tr := NewTrace()
	res, err := NewRunner(WithMachine(cfg), WithInit(init), WithTrace(tr), WithFaults(plan)).Run(prog)
	if err != nil {
		t.Fatalf("backend %v: %v", cfg.Backend, err)
	}
	var out backendRun
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.jsonl = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out.text = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := analyze.Analyze(tr.Events()).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out.analyze = append([]byte(nil), buf.Bytes()...)
	out.stats = res.Stats
	out.arrays = res.Arrays
	return out
}

// digest renders everything a run exposes as one line of hashes: the
// sorted JSONL and text trace exports, the analyze text, %+v of Stats
// (the P×P traffic matrix included) and the assembled arrays by name,
// each value by its bits.
func (r backendRun) digest() string {
	names := make([]string, 0, len(r.arrays))
	for name := range r.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	var arrays []byte
	for _, name := range names {
		arrays = append(arrays, name...)
		for _, v := range r.arrays[name] {
			arrays = binary.LittleEndian.AppendUint64(arrays, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("jsonl=%s text=%s analyze=%s stats=%s arrays=%s",
		sha(r.jsonl), sha(r.text), sha(r.analyze), sha([]byte(fmt.Sprintf("%+v", r.stats))), sha(arrays))
}

// TestBackendDifferential is the equivalence harness for the
// discrete-event machine core: every workload × processor count runs
// once per backend from one compiled program, and the two runs must be
// indistinguishable — byte-identical sorted JSONL and text trace
// exports, byte-identical analyze output, deeply equal Stats
// (Messages/Received/Words and the full P×P traffic matrix), and equal
// final arrays. This is what licenses every other test in the
// repository to run on the DES default.
func TestBackendDifferential(t *testing.T) {
	workloads := []struct {
		name string
		src  func(p int) string
		init func(src string) map[string][]float64
		plan *FaultPlan
	}{
		// dgefa needs the diagonally dominant matrix: factoring a plain
		// ramp (singular) yields NaNs, and NaN != NaN breaks DeepEqual.
		// DefaultOptions compiles with the overlap schedule on, so jacobi
		// exercises split-phase postrecv/waitrecv and dgefa the pipelined
		// postbcast/waitbcast path on both backends at every P.
		{"jacobi", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit, nil},
		{"dgefa", func(p int) string { return DgefaSrc(64, p) },
			func(string) map[string][]float64 {
				return map[string][]float64{"a": DgefaMatrix(64)}
			}, nil},
		{"dyndist", func(p int) string { return Fig15Src(3, p) }, RampInit, nil},
		// reduction lowers globalsum/globalmax to the binomial combining
		// tree (machine.Reduce) plus the result broadcast
		{"reduction", func(p int) string { return ReductionSrc(128, p) }, RampInit, nil},
		// the straggler lane re-runs the overlapped stencil under a
		// deterministic fault plan: processor 0 runs 2x slow and random
		// delays perturb every flight, so the split-phase waits actually
		// stall — the two backends must still agree byte-for-byte
		{"jacobi_straggler", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit,
			&FaultPlan{Seed: 11, DelayProb: 0.2, DelayMax: 40, Stragglers: map[int]float64{0: 2.0}}},
	}
	// testdata/golden/run_digest.txt records every cell's goroutine-engine
	// run, so the matrix keeps pinning the DES engine to it once the
	// goroutine engine is no longer selectable from here
	path := filepath.Join("testdata", "golden", "run_digest.txt")
	recorded := map[string]string{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			cell, digest, _ := strings.Cut(line, " ")
			recorded[cell] = digest
		}
	}
	var digest strings.Builder
	cells := 0
	for _, w := range workloads {
		for _, p := range []int{1, 3, 6, 16, 64} {
			cell := fmt.Sprintf("%s/p%d", w.name, p)
			cells++
			t.Run(cell, func(t *testing.T) {
				src := w.src(p)
				prog, err := Compile(src, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				init := w.init(src)
				// a modest LinkDepth keeps the goroutine backend's eager
				// P² channel buffers affordable at P=64 (the 8192 default
				// would cost ~1.6 GB there); semantics are identical on
				// both backends as long as no link fills, and 512 clears
				// dgefa's worst per-link backlog with room to spare
				cfg := DefaultMachine(p)
				cfg.LinkDepth = 512

				cfg.Backend = BackendDES
				des := runOnBackend(t, prog, init, cfg, w.plan)
				cfg.Backend = BackendGoroutine
				ref := runOnBackend(t, prog, init, cfg, w.plan)

				if !bytes.Equal(des.jsonl, ref.jsonl) {
					t.Errorf("JSONL trace exports differ (%d vs %d bytes): %s",
						len(des.jsonl), len(ref.jsonl), firstDiff(des.jsonl, ref.jsonl))
				}
				if !bytes.Equal(des.text, ref.text) {
					t.Errorf("text trace exports differ: %s", firstDiff(des.text, ref.text))
				}
				if !bytes.Equal(des.analyze, ref.analyze) {
					t.Errorf("analyze outputs differ: %s", firstDiff(des.analyze, ref.analyze))
				}
				if !reflect.DeepEqual(des.stats, ref.stats) {
					t.Errorf("stats differ:\n des=%+v\n ref=%+v", des.stats, ref.stats)
				}
				if !reflect.DeepEqual(des.arrays, ref.arrays) {
					t.Errorf("final arrays differ")
				}
				if d, r := des.digest(), ref.digest(); d != r {
					t.Errorf("digests differ:\n des %s\n ref %s", d, r)
				}
				fmt.Fprintf(&digest, "%s %s\n", cell, ref.digest())
				if want := recorded[cell]; !*update && ref.digest() != want {
					t.Errorf("goroutine-engine digest differs from %s:\n got  %s\n want %s", path, ref.digest(), want)
				}
			})
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(digest.String()), 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(recorded) != cells {
		t.Errorf("%s has %d lines, the matrix %d cells", path, len(recorded), cells)
	}
}

// firstDiff renders the first differing line of two byte streams.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  des: %s\n  ref: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
