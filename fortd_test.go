package fortd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestCompileAndRunQuickstart(t *testing.T) {
	prog, err := Compile(Fig1Src(100, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prog.P() != 4 {
		t.Errorf("P = %d", prog.P())
	}
	res, err := NewRunner(WithInit(map[string][]float64{"X": Ramp(100)})).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner(WithInit(map[string][]float64{"X": Ramp(100)})).RunReference(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Arrays["X"] {
		if !(math.Abs(res.Arrays["X"][i]-ref.Arrays["X"][i]) <= 1e-9) {
			t.Fatalf("X[%d] = %v, want %v", i, res.Arrays["X"][i], ref.Arrays["X"][i])
		}
	}
	if res.Stats.Messages != 3 {
		t.Errorf("messages = %d", res.Stats.Messages)
	}
}

func TestListingAndReport(t *testing.T) {
	prog, err := Compile(Fig4Src(100, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := prog.Listing()
	if !strings.Contains(text, "F1$row") {
		t.Error("listing missing clone")
	}
	src := prog.SourceListing()
	if strings.Contains(src, "my$p") {
		t.Error("source listing contains generated code")
	}
	r := prog.Report()
	if r.Cloned == 0 || r.Messages == 0 {
		t.Errorf("report = %+v", r)
	}
	clones := prog.Clones()
	if clones["F1$row"] != "F1" {
		t.Errorf("clones = %v", clones)
	}
}

func TestOverlapExtentAPI(t *testing.T) {
	prog, err := Compile(Fig1Src(100, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := prog.OverlapExtent("F1", "X", 0, 25)
	if lo != 1 || hi != 30 {
		t.Errorf("extent = [%d:%d], want [1:30]", lo, hi)
	}
}

func TestCustomMachineConfig(t *testing.T) {
	prog, err := Compile(Fig1Src(100, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cheap := MachineConfig{P: 4, Latency: 1, PerWord: 0.01, FlopCost: 0.1}
	expensive := MachineConfig{P: 4, Latency: 10000, PerWord: 10, FlopCost: 0.1}
	init := map[string][]float64{"X": Ramp(100)}
	r1, err := NewRunner(WithInit(init), WithMachine(cheap)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(WithInit(init), WithMachine(expensive)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Time <= r1.Stats.Time {
		t.Errorf("expensive machine not slower: %.1f vs %.1f", r2.Stats.Time, r1.Stats.Time)
	}
}

// TestMachineSizedToProgram: WithMachine may leave P to the program and
// still set the link depth or the cost model; a P that is not the
// program's is an error before the machine starts (it used to be a
// deadlock report for P too large and a silently wrong answer for P too
// small).
func TestMachineSizedToProgram(t *testing.T) {
	src := Jacobi2DSrc(16, 3, 4)
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	init := RampInit(src)
	def, err := NewRunner(WithInit(init)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	wrongSize := func(p int) func(*testing.T, *Result, error) {
		return func(t *testing.T, _ *Result, err error) {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d processors", p)) || !strings.Contains(err.Error(), "runs on 4") {
				t.Errorf("err = %v, want one naming %d and 4", err, p)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   MachineConfig
		check func(t *testing.T, res *Result, err error)
	}{
		{"too many processors", DefaultMachine(8), wrongSize(8)},
		{"too few processors", DefaultMachine(2), wrongSize(2)},
		{"P left to the program, link depth kept", MachineConfig{LinkDepth: 1}, func(t *testing.T, _ *Result, err error) {
			// the halo exchange queues two messages on a link
			var ce *CongestionError
			if !errors.As(err, &ce) || ce.Depth != 1 {
				t.Errorf("err = %v, want congestion of a depth-1 link", err)
			}
		}},
		{"P left to the program, default cost model", MachineConfig{LinkDepth: 64}, func(t *testing.T, res *Result, err error) {
			if err != nil || res.Stats.String() != def.Stats.String() {
				t.Errorf("run = %v, %v; want the default machine's %v", res, err, def.Stats)
			}
		}},
		{"P left to the program, cost model kept", MachineConfig{Latency: 1, PerWord: 0.01, FlopCost: 0.1}, func(t *testing.T, res *Result, err error) {
			if err != nil || res.Stats.Time >= def.Stats.Time || res.Stats.Messages != def.Stats.Messages {
				t.Errorf("run = %v, %v; want the same messages in less time than %v", res, err, def.Stats)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := NewRunner(WithInit(init), WithMachine(tc.cfg)).Run(prog)
			tc.check(t, res, err)
		})
	}
	t.Run("SPMD text sized by its n$proc", func(t *testing.T) {
		res, err := NewRunner(WithMachine(DefaultMachine(8))).RunSPMD(DgefaHandSrc(8, 4), 0)
		wrongSize(8)(t, res, err)
	})
}

func TestTable1Coverage(t *testing.T) {
	rows := Table1()
	if len(rows) != 12 {
		t.Fatalf("Table 1 has %d rows, want 12", len(rows))
	}
	// the paper's directions
	want := map[string]string{
		"Reaching decompositions": "↓",
		"Local iteration sets":    "↑",
		"Nonlocal index sets":     "↑",
		"Overlaps":                "l",
		"Live decompositions":     "↑",
		"Loop structure":          "↓",
	}
	for _, row := range rows {
		if dir, ok := want[row.Name]; ok && row.Direction.String() != dir {
			t.Errorf("%s direction = %s, want %s", row.Name, row.Direction, dir)
		}
		if row.Package == "" {
			t.Errorf("%s has no implementing package", row.Name)
		}
	}
}

func TestStrategiesAgreeOnResults(t *testing.T) {
	init := map[string][]float64{"X": Ramp(100)}
	var want []float64
	for _, s := range []Strategy{Interprocedural, Immediate, RuntimeResolution} {
		opts := DefaultOptions()
		opts.Strategy = s
		prog, err := Compile(Fig1Src(100, 4), opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, err := NewRunner(WithInit(init)).Run(prog)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want == nil {
			want = res.Arrays["X"]
			continue
		}
		for i := range want {
			if !(math.Abs(res.Arrays["X"][i]-want[i]) <= 1e-9) {
				t.Fatalf("%v: X[%d] = %v, want %v", s, i, res.Arrays["X"][i], want[i])
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",                        // empty
		"PROGRAM P\nfoo bar\nEND", // parse error
		"PROGRAM P\ncall P\nEND",  // self-recursion
	}
	for _, src := range bad {
		if _, err := Compile(src, DefaultOptions()); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestWorkloadGeneratorsParse(t *testing.T) {
	for name, src := range map[string]string{
		"fig1":  Fig1Src(200, 8),
		"fig4":  Fig4Src(60, 2),
		"fig15": Fig15Src(5, 4),
		"dgefa": DgefaSrc(32, 4),
		"jac1d": Jacobi1DSrc(64, 3, 4),
		"jac2d": Jacobi2DSrc(16, 2, 4),
	} {
		if _, err := Compile(src, DefaultOptions()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestScaledWorkloadsP256: the three scaled workloads compile for 256
// processors, compute what the sequential reference computes and send
// exactly the messages their shape dictates: jacobi steps·2·(P−1) halo
// cells, dgefa one broadcast tree of P−1 messages per elimination step,
// the dynamic redistribution six global sums (T = 3 trips × 2 calls, each
// an allreduce of log2 P = 8 rounds in which every processor sends one
// message) and its one physical remap, a message for every pair of
// processors of which the second owns under CYCLIC an element the first
// owns under BLOCK.
func TestScaledWorkloadsP256(t *testing.T) {
	if testing.Short() {
		t.Skip("three P=256 runs")
	}
	remapPairs := map[[2]int]bool{}
	for i := 0; i < 4096; i++ {
		if block, cyclic := i/(4096/256), i%256; block != cyclic {
			remapPairs[[2]int{block, cyclic}] = true
		}
	}
	for _, w := range []struct {
		name, src string
		init      map[string][]float64
		msgs      int64
	}{
		{"jacobi", Jacobi1DSrc(8192, 5, 256), map[string][]float64{"a": Ramp(8192)}, 5 * 2 * 255},
		{"dgefa", DgefaSrc(128, 256), map[string][]float64{"a": DgefaMatrix(128)}, 127 * 128 / 2}, // step k reaches the n-k owners of columns k+1..n
		{"dyndist", Fig15ScaledSrc(4096, 3, 256), map[string][]float64{"X": Ramp(4096)}, 6*256*8 + int64(len(remapPairs))},
	} {
		prog, err := Compile(w.src, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if prog.P() != 256 {
			t.Fatalf("%s: compiled for P=%d", w.name, prog.P())
		}
		r := NewRunner(WithInit(w.init))
		res, err := r.Run(prog)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ref, err := r.RunReference(prog)
		if err != nil {
			t.Fatalf("%s: reference: %v", w.name, err)
		}
		for arr, want := range ref.Arrays {
			if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
				t.Errorf("%s: %s differs from the sequential reference by %g", w.name, arr, d)
			}
		}
		if res.Stats.Messages != w.msgs {
			t.Errorf("%s: %d messages, want %d", w.name, res.Stats.Messages, w.msgs)
		}
	}
}

// TestScaledWorkloadsP2048: dgefa at n=256 on 2 048 processors, which
// allocated 1 196.8 MB while each of them held the whole matrix, equals
// the sequential reference, sends Σ min(P−1, n−k) = 255·256/2 messages —
// step k reaches the owners of columns k+1..n — and allocates less than
// 200 MB (some 67 MB of it the machine's P×P pair statistics).
func TestScaledWorkloadsP2048(t *testing.T) {
	if testing.Short() {
		t.Skip("a P=2048 run")
	}
	prog, err := Compile(DgefaSrc(256, 2048), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithInit(map[string][]float64{"a": DgefaMatrix(256)}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := r.Run(prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.RunReference(prog)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Arrays["a"], ref.Arrays["a"]); d > 1e-9 {
		t.Errorf("a differs from the sequential reference by %g", d)
	}
	if res.Stats.Messages != 255*256/2 {
		t.Errorf("%d messages, want %d", res.Stats.Messages, 255*256/2)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 200 {
		t.Errorf("the run allocates %.1f MB, want < 200", mb)
	}
}

// TestCompileDeterminism: compiling the same source repeatedly yields
// byte-identical SPMD listings (no map-iteration order leaks).
func TestCompileDeterminism(t *testing.T) {
	for name, src := range map[string]string{
		"fig4":  Fig4Src(100, 4),
		"dgefa": DgefaSrc(32, 4),
		"fig15": Fig15Src(5, 4),
		"adi":   ADISrc(16, 2, 4, true),
	} {
		var first string
		for trial := 0; trial < 10; trial++ {
			prog, err := Compile(src, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			text := prog.Listing()
			if trial == 0 {
				first = text
				continue
			}
			if text != first {
				t.Fatalf("%s: listing differs between compiles", name)
			}
		}
	}
}

// TestDgefaApproachesHandWritten reproduces the paper's headline §9
// claim: the interprocedurally compiled dgefa approaches hand-written
// message-passing code, while the baselines are far away.
func TestDgefaApproachesHandWritten(t *testing.T) {
	for _, n := range []int{64, 96} {
		const p = 4
		init := map[string][]float64{"a": DgefaMatrix(n)}

		// the hand-written program is plain SPMD text executed directly
		handRes, err := NewRunner(WithInit(init)).RunSPMD(DgefaHandSrc(n, p), p)
		if err != nil {
			t.Fatal(err)
		}

		compiled, err := Compile(DgefaSrc(n, p), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		compRes, err := NewRunner(WithInit(init)).Run(compiled)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRunner(WithInit(init)).RunReference(compiled)
		if err != nil {
			t.Fatal(err)
		}

		// both must be correct
		for i, want := range ref.Arrays["a"] {
			if d := math.Abs(compRes.Arrays["a"][i] - want); !(d <= 1e-6) {
				t.Fatalf("compiled a[%d] = %v, want %v", i, compRes.Arrays["a"][i], want)
			}
			if d := math.Abs(handRes.Arrays["a"][i] - want); !(d <= 1e-6) {
				t.Fatalf("hand a[%d] = %v, want %v", i, handRes.Arrays["a"][i], want)
			}
		}

		// ROADMAP item 4's targets
		c, h := compRes.Stats, handRes.Stats
		for _, m := range []struct {
			what           string
			compiled, hand float64
			bound          float64
		}{
			{"time", c.Time, h.Time, 1.15},
			{"messages", float64(c.Messages), float64(h.Messages), 1.25},
			{"words", float64(c.Words), float64(h.Words), 1.5},
		} {
			if ratio := m.compiled / m.hand; ratio > m.bound {
				t.Errorf("n=%d %s: compiled/hand = %.3f (compiled %.1f, hand %.1f), above %.2f: not 'closely approaching'",
					n, m.what, ratio, m.compiled, m.hand, m.bound)
			}
		}
		t.Logf("n=%d hand=%.0fµs compiled=%.0fµs ratio=%.3f", n, h.Time, c.Time, c.Time/h.Time)
	}
}
