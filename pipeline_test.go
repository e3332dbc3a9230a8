package fortd

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fortd/internal/explain"
	"fortd/internal/machine"
)

// pipelineRow is one program of testdata/pipeline, the table of the
// pipelined-computation rule (comm.pipeline): pos_* rows are loops the
// compiler pipelines, neg_* rows fail one condition each. Leading
// comment lines say what to expect at the row's own n$proc: one
// "! expect applied|missed <text of the comm pipeline remark>" per
// decision and, for a negative row, "! parent <hash>": the listing the
// parent commit emitted for it, which it must still get byte for byte.
type pipelineRow struct {
	name, src, parent string
	expect            []struct {
		kind explain.Kind
		text string
	}
}

func pipelineRows(t *testing.T) []pipelineRow {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "pipeline", "*.f"))
	if err != nil || len(files) < 18 {
		t.Fatalf("testdata/pipeline: %v %v", files, err)
	}
	var rows []pipelineRow
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		row := pipelineRow{name: strings.TrimSuffix(filepath.Base(f), ".f"), src: string(buf)}
		for _, line := range strings.Split(row.src, "\n") {
			if rest, ok := strings.CutPrefix(line, "! parent "); ok {
				row.parent = rest
			}
			rest, ok := strings.CutPrefix(line, "! expect ")
			if !ok {
				continue
			}
			kind, text, _ := strings.Cut(rest, " ")
			if kind != "applied" && kind != "missed" {
				t.Fatalf("%s: malformed %q", row.name, line)
			}
			e := struct {
				kind explain.Kind
				text string
			}{explain.Missed, text}
			if kind == "applied" {
				e.kind = explain.Applied
			}
			row.expect = append(row.expect, e)
		}
		if len(row.expect) == 0 || strings.HasPrefix(row.name, "neg_") != (row.parent != "") {
			t.Fatalf("%s: no expectation, or a parent listing on the wrong kind of row", row.name)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestPipelineTable: every row carries its remarks. A pipelined loop
// has no guard and its bounds reduced (that no message is left inside
// it is TestPipelinedClosedFormTraffic's to count); a loop that falls
// short of a condition says which, and is compiled as the parent
// commit compiled it. Every why-string of the rule has a row.
func TestPipelineTable(t *testing.T) {
	whys := map[string]bool{}
	for _, row := range pipelineRows(t) {
		for _, overlap := range []bool{true, false} {
			ex := NewExplain()
			opts := DefaultOptions().WithOverlap(overlap)
			opts.Explain = ex
			prog, err := Compile(row.src, opts)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			var remarks []explain.Remark
			for _, r := range ex.Remarks() {
				if r.Pass == "comm" && r.Name == "pipeline" {
					remarks = append(remarks, r)
				}
			}
			if len(remarks) != len(row.expect) {
				t.Errorf("%s: %d pipeline remarks, want %d: %v", row.name, len(remarks), len(row.expect), remarks)
			}
			for _, e := range row.expect {
				found := false
				for _, r := range remarks {
					found = found || r.Kind == e.kind && strings.Contains(r.Msg, e.text)
				}
				if !found {
					t.Errorf("%s: no %v pipeline remark with %q in %v", row.name, e.kind, e.text, remarks)
				}
				if e.kind == explain.Missed {
					whys[e.text] = true
				}
			}
			if row.parent != "" {
				if got := sha([]byte(prog.Listing())); got != row.parent {
					t.Errorf("%s overlap=%v: listing %s, the parent commit's was %s\n%s", row.name, overlap, got, row.parent, prog.Listing())
				}
			} else if rep := prog.Report(); rep.Guards != 0 || rep.LoopsReduced == 0 {
				t.Errorf("%s overlap=%v: a pipelined loop is guarded or not reduced (%s)\n%s", row.name, overlap, rep, prog.Listing())
			}
		}
	}
	if len(whys) < 6 {
		t.Errorf("only %d of the rule's 6 fallbacks have a row: %v", len(whys), whys)
	}
}

// TestPipelineDifferential runs every row of the table under each
// strategy, with the schedule pass on and off, at six machine sizes —
// blocks wider and narrower than the shift, more processors than cells
// — against the sequential reference.
func TestPipelineDifferential(t *testing.T) {
	for _, row := range pipelineRows(t) {
		for _, st := range digestStrategies {
			for _, overlap := range []bool{true, false} {
				for _, p := range []int{1, 2, 3, 4, 6, 16} {
					opts := DefaultOptions().WithOverlap(overlap)
					opts.Strategy, opts.P = st.s, p
					prog, err := Compile(row.src, opts)
					if err != nil {
						t.Fatalf("%s %s: %v", row.name, st.name, err)
					}
					r := NewRunner(WithInit(RampInit(row.src)))
					res, err := r.Run(prog)
					if err != nil {
						t.Fatalf("%s %s overlap=%v P=%d: %v\n%s", row.name, st.name, overlap, p, err, prog.Listing())
					}
					ref, err := r.RunReference(prog)
					if err != nil {
						t.Fatal(err)
					}
					for arr, want := range ref.Arrays {
						if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
							t.Errorf("%s %s overlap=%v P=%d: %s differs from the sequential reference by %g\n%s",
								row.name, st.name, overlap, p, arr, d, prog.Listing())
						}
					}
				}
			}
		}
	}
}

// recurrenceSrc generates x(i) = f(x(i-c)) over n BLOCK-distributed
// cells, or for m > 1 rows of m cells with the partitioned loop
// outermost.
func recurrenceSrc(n, p, c, m int) string {
	if m == 1 {
		return fmt.Sprintf(`
      PROGRAM REC
      PARAMETER (n$proc = %d)
      REAL x(%d)
      DISTRIBUTE x(BLOCK)
      do i = %d, %d
        x(i) = 0.5 * x(i-%d) + 1.0
      enddo
      END
`, p, n, c+1, n, c)
	}
	return fmt.Sprintf(`
      PROGRAM REC
      PARAMETER (n$proc = %d)
      REAL x(%d,%d)
      DISTRIBUTE x(BLOCK,:)
      do i = %d, %d
        do j = 1, %d
          x(i,j) = 0.5 * x(i-%d,j) + 1.0
        enddo
      enddo
      END
`, p, n, m, c+1, n, m, c)
}

// TestPipelinedClosedFormTraffic: a pipelined loop costs one message of
// |c| boundary cells (times the extent of the loops inside) per block
// boundary per entry, so its traffic follows from P, c and that extent
// alone, to the last message and word; and the chain is the sequential
// run plus, per boundary, one send start-up, one message flight and the
// sender's guard, nothing more.
func TestPipelinedClosedFormTraffic(t *testing.T) {
	for _, c := range []struct{ n, p, c, m int }{{24, 4, 1, 1}, {24, 4, 5, 1}, {64, 8, 3, 1}, {23, 3, 2, 1}, {16, 4, 1, 12}} {
		run := func(p int) (Stats, Report) {
			src := recurrenceSrc(c.n, c.p, c.c, c.m)
			opts := DefaultOptions()
			opts.P = p
			prog, err := Compile(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewRunner(WithInit(RampInit(src))).Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats, prog.Report()
		}
		one, _ := run(1)
		got, rep := run(c.p)
		msgs, words := c.p-1, c.c*(c.p-1)*c.m
		if got.Messages != int64(msgs) || got.Words != int64(words) || rep.Guards != 0 {
			t.Errorf("n=%d P=%d c=%d extent %d: %d messages, %d words, %d guards; closed form %d, %d, 0",
				c.n, c.p, c.c, c.m, got.Messages, got.Words, rep.Guards, msgs, words)
		}
		cfg := machine.DefaultConfig(c.p)
		chain := one.Time + float64(c.p-1)*(2*cfg.Latency+float64(c.c*c.m)*cfg.PerWord+cfg.FlopCost)
		if math.Abs(got.Time-chain) > 1e-6 {
			t.Errorf("n=%d P=%d c=%d extent %d: %.4f µs, the chain takes %.4f", c.n, c.p, c.c, c.m, got.Time, chain)
		}
	}
}

// TestCompiledNeverLosesToRuntimeResolution: the paper's strawman,
// per-reference ownership tests and per-element messages at run time,
// is never the faster program on a generated workload.
func TestCompiledNeverLosesToRuntimeResolution(t *testing.T) {
	for _, c := range digestCases(t) {
		if !strings.HasPrefix(c.name, "gen/") || !c.run {
			continue
		}
		var times [2]float64
		for i, s := range []Strategy{Interprocedural, RuntimeResolution} {
			opts := DefaultOptions()
			opts.Strategy = s
			prog, err := Compile(c.src, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			res, err := NewRunner(WithInit(RampInit(c.src))).Run(prog)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			times[i] = res.Stats.Time
		}
		if times[0] > times[1] {
			t.Errorf("%s: compiled %.1f µs, run-time resolution %.1f µs", c.name, times[0], times[1])
		}
	}
}

// chainSrc is a chain of pipelined loops over x(n) in BLOCK on p
// processors, each reading its left neighbour's new value and its right
// neighbour's old one: shifts of one cell both ways.
func chainSrc(n, loops, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "      PROGRAM CHAIN\n      PARAMETER (n$proc = %d)\n      REAL x(%d)\n      DISTRIBUTE x(BLOCK)\n", p, n)
	for l := 1; l <= loops; l++ {
		fmt.Fprintf(&b, "      do i = 2, %d\n        x(i) = 0.5 * x(i-1) + 0.25 * x(i+1) + %d.0\n      enddo\n", n-1, l)
	}
	b.WriteString("      END\n")
	return b.String()
}

// TestPipelineChainNeverSlower: the schedule pass sends a chain's shifts
// early exactly when the chain has at least P-1 loops, and then the
// program is faster; otherwise it is the blocking program to the last
// bit. Arrays, messages and words never change.
func TestPipelineChainNeverSlower(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 16} {
		for loops := 1; loops <= 10; loops++ {
			src := chainSrc(8*p, loops, p)
			var runs [2]*Result
			applied := false
			for i, overlap := range []bool{false, true} {
				ex := NewExplain()
				opts := DefaultOptions().WithOverlap(overlap)
				opts.Explain = ex
				prog, err := Compile(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range ex.Remarks() {
					applied = applied || r.Kind == explain.Applied && r.Name == "overlap-chain"
				}
				if runs[i], err = NewRunner(WithInit(RampInit(src))).Run(prog); err != nil {
					t.Fatal(err)
				}
			}
			off, on := runs[0], runs[1]
			if applied != (loops >= 2 && loops >= p-1) {
				t.Errorf("P=%d, %d loops: applied %v", p, loops, applied)
			}
			if on.Stats.Time > off.Stats.Time || (on.Stats.Time < off.Stats.Time) != applied {
				t.Errorf("P=%d, %d loops: %.4f µs rescheduled (applied %v), %.4f blocking", p, loops, on.Stats.Time, applied, off.Stats.Time)
			}
			if !reflect.DeepEqual(on.Arrays, off.Arrays) || on.Stats.Messages != off.Stats.Messages || on.Stats.Words != off.Stats.Words {
				t.Errorf("P=%d, %d loops: arrays or traffic differ (%d/%d messages, %d/%d words)",
					p, loops, on.Stats.Messages, off.Stats.Messages, on.Stats.Words, off.Stats.Words)
			}
		}
	}
}

// TestPipelineChainHandWritten: testdata/pipeline/chain_hand.spmd is
// SyntheticProcsSrc(2, 8, 32, 4) compiled blocking and rescheduled by
// hand as the schedule pass's early shifts should. The compiled program
// takes its virtual time to the last bit, with its messages and words,
// and computes the blocking program's arrays.
func TestPipelineChainHandWritten(t *testing.T) {
	hand, err := os.ReadFile(filepath.Join("testdata", "pipeline", "chain_hand.spmd"))
	if err != nil {
		t.Fatal(err)
	}
	src := SyntheticProcsSrc(2, 8, 32, 4)
	r := NewRunner(WithInit(RampInit(src)))
	want, err := r.RunSPMD(string(hand), 4)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*Result
	for i, overlap := range []bool{false, true} {
		prog, err := Compile(src, DefaultOptions().WithOverlap(overlap))
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = r.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	blocking, got := runs[0], runs[1]
	if got.Stats.Time != want.Stats.Time || got.Stats.Messages != want.Stats.Messages || got.Stats.Words != want.Stats.Words {
		t.Errorf("compiled %v µs, %d messages, %d words; by hand %v, %d, %d",
			got.Stats.Time, got.Stats.Messages, got.Stats.Words, want.Stats.Time, want.Stats.Messages, want.Stats.Words)
	}
	if got.Stats.Time >= blocking.Stats.Time || !reflect.DeepEqual(got.Arrays, blocking.Arrays) {
		t.Errorf("rescheduled %v µs against %v blocking, or the arrays differ", got.Stats.Time, blocking.Stats.Time)
	}
}
