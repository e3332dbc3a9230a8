package fortd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fortd/internal/trace/analyze"
)

// runDigest runs prog traced and renders everything the run exposes as
// one line of hashes: the sorted JSONL and text trace exports, the
// analyze text, %+v of Stats (the P×P traffic matrix included) and the
// assembled arrays by name, each value by its bits.
func runDigest(t *testing.T, prog *Program, init map[string][]float64, cfg MachineConfig, plan *FaultPlan) string {
	t.Helper()
	tr := NewTrace()
	res, err := NewRunner(WithMachine(cfg), WithInit(init), WithTrace(tr), WithFaults(plan)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, text, analysis bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Analyze(tr.Events()).WriteText(&analysis); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(res.Arrays))
	for name := range res.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	var arrays []byte
	for _, name := range names {
		arrays = append(arrays, name...)
		for _, v := range res.Arrays[name] {
			arrays = binary.LittleEndian.AppendUint64(arrays, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("jsonl=%s text=%s analyze=%s stats=%s arrays=%s",
		sha(jsonl.Bytes()), sha(text.Bytes()), sha(analysis.Bytes()), sha([]byte(fmt.Sprintf("%+v", res.Stats))), sha(arrays))
}

// TestBackendDifferential holds the machine to the goroutine engine it
// replaced. While internal/machine shipped both, this test ran every
// workload × processor count once on each and required byte-identical
// sorted JSONL and text trace exports, byte-identical analyze output,
// deeply equal Stats (the full P×P traffic matrix included) and equal
// final arrays; testdata/golden/run_digest.txt is the goroutine
// engine's side of that comparison, recorded on the last tree that had
// it (commit 0839dd0) and never regenerated for an engine or executor
// change since (its dgefa lines were re-recorded when the compiler
// started generating one broadcast per elimination step, the others
// coming out as they were). The engine itself
// lives on as internal/machine's test oracle (TestEngineDifferential);
// what only this matrix adds is compiled programs at P up to 64.
func TestBackendDifferential(t *testing.T) {
	workloads := []struct {
		name string
		src  func(p int) string
		init func(src string) map[string][]float64
		plan *FaultPlan
	}{
		// dgefa gets the diagonally dominant matrix: factoring a plain
		// ramp (singular) yields NaNs. DefaultOptions compiles with the overlap schedule on, so jacobi
		// exercises split-phase postrecv/waitrecv and dgefa guarded calls
		// around one blocking broadcast per step at every P.
		{"jacobi", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit, nil},
		{"dgefa", func(p int) string { return DgefaSrc(64, p) },
			func(string) map[string][]float64 {
				return map[string][]float64{"a": DgefaMatrix(64)}
			}, nil},
		{"dyndist", func(p int) string { return Fig15Src(3, p) }, RampInit, nil},
		// reduction lowers globalsum/globalmax to one recursive-doubling
		// allreduce (machine.AllReduce); its lines and dyndist's were
		// re-recorded when that replaced a tree reduce plus a broadcast
		{"reduction", func(p int) string { return ReductionSrc(128, p) }, RampInit, nil},
		// the straggler lane re-runs the overlapped stencil under a
		// deterministic fault plan: processor 0 runs 2x slow and random
		// delays perturb every flight, so the split-phase waits actually
		// stall
		{"jacobi_straggler", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit,
			&FaultPlan{Seed: 11, DelayProb: 0.2, DelayMax: 40, Stragglers: map[int]float64{0: 2.0}}},
	}
	path := filepath.Join("testdata", "golden", "run_digest.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		cell, digest, _ := strings.Cut(line, " ")
		recorded[cell] = digest
	}
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
				// the digest was recorded at this depth, which kept the
				// goroutine engine's eager P² channel buffers affordable
				// at P=64; no link comes near filling it
				cfg := DefaultMachine(p)
				cfg.LinkDepth = 512
				got, want := runDigest(t, prog, init, cfg, w.plan), recorded[cell]
				if *update {
					recorded[cell] = got
				} else if got != want {
					t.Errorf("run differs from the goroutine engine's in %s:\n got  %s\n want %s", path, got, want)
				}
			})
		}
	}
	if *update {
		// for a compiler change that moves a workload's generated code:
		// every other line must come out as it was recorded
		var out strings.Builder
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			cell, _, _ := strings.Cut(line, " ")
			fmt.Fprintf(&out, "%s %s\n", cell, recorded[cell])
		}
		if err := os.WriteFile(path, []byte(out.String()), 0644); err != nil {
			t.Fatal(err)
		}
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
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
