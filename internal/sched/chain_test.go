package sched

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fortd/internal/explain"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/spmd"
)

// chainSrc spells a chain of pipelined loops over x(32) on four
// processors in blocks of 8 as code generation does, one loop per shift
// (x(i) reads x(i-s) and x(i+s)), and applies edit to the listing.
func chainSrc(edit func(string) string, shifts ...int) string {
	var b strings.Builder
	b.WriteString("      PROGRAM P\n      REAL x(32)\n      my$p = myproc()\n")
	for l, s := range shifts {
		fmt.Fprintf(&b, `      if ((my$p .GT. 0)) then
        send x(((my$p * 8) + 1):((my$p * 8) + %[1]d)) to (my$p - 1)
      endif
      if ((my$p .LT. 3)) then
        recv x((((my$p + 1) * 8) + 1):(((my$p + 1) * 8) + %[1]d)) from (my$p + 1)
      endif
      if ((my$p .GT. 0)) then
        recv x(((my$p * 8) - %[2]d):(my$p * 8)) from (my$p - 1)
      endif
      do i = MAX(%[3]d,((my$p * 8) + 1)),MIN(%[4]d,((my$p + 1) * 8))
        x(i) = (((0.5 * x((i - %[1]d))) + (0.25 * x((i + %[1]d)))) + %[5]d)
      enddo
      if ((my$p .LT. 3)) then
        send x((((my$p + 1) * 8) - %[2]d):((my$p + 1) * 8)) to (my$p + 1)
      endif
`, s, s-1, s+1, 32-s, l+1)
	}
	b.WriteString("      END\n")
	if edit == nil {
		return b.String()
	}
	return edit(b.String())
}

// replaceNth replaces the n-th occurrence (from 1) of old in s.
func replaceNth(s, old, new string, n int) string {
	at := 0
	for ; n > 1; n-- {
		at += strings.Index(s[at:], old) + len(old)
	}
	k := at + strings.Index(s[at:], old)
	return s[:k] + new + s[k+len(old):]
}

// TestChainSendsEarly: in a chain of three loops the first two are split
// after the cells the next loop's shift sends, that send sits between
// the halves with the loop's own shift recv after it, and the last loop
// receives its pipeline first. The arrays and the traffic are the
// blocking program's, and the time is lower.
func TestChainSendsEarly(t *testing.T) {
	src := chainSrc(nil, 1, 2, 1)
	out, rs, n := applyTo(t, src)
	if n != 2 || countRemarks(rs, "overlap-chain") != 2 || !hasRemark(rs, explain.Applied, "overlap-chain", "a chain of 3 loops at P = 4") {
		t.Fatalf("applied %d, remarks %v:\n%s", n, rs, out)
	}
	if countRemarks(rs, "overlap-halo") != 0 {
		t.Errorf("the halo split still looks at the chain: %v", rs)
	}
	order := []string{
		"send x(((my$p * 8) + 1)) to (my$p - 1)", // the chain's first shift stays
		"recv x(((my$p * 8) - 0):(my$p * 8)) from (my$p - 1)",
		"do i = MAX(2,((my$p * 8) + 1)),MIN(MIN(31,((my$p + 1) * 8)),((my$p * 8) + 2))",
		"send x(((my$p * 8) + 1):((my$p * 8) + 2)) to (my$p - 1)",
		"recv x((((my$p + 1) * 8) + 1)) from (my$p + 1)",
		"do i = MAX(MAX(2,((my$p * 8) + 1)),(((my$p * 8) + 2) + 1)),MIN(31,((my$p + 1) * 8))",
		"send x((((my$p + 1) * 8) - 0):((my$p + 1) * 8)) to (my$p + 1)",
		"recv x(((my$p * 8) - 1):(my$p * 8)) from (my$p - 1)",
		"do i = MAX(3,((my$p * 8) + 1)),MIN(MIN(30,((my$p + 1) * 8)),((my$p * 8) + 1))",
		"send x(((my$p * 8) + 1)) to (my$p - 1)",
		"recv x((((my$p + 1) * 8) + 1):(((my$p + 1) * 8) + 2)) from (my$p + 1)",
		"do i = MAX(MAX(3,((my$p * 8) + 1)),(((my$p * 8) + 1) + 1)),MIN(30,((my$p + 1) * 8))",
		"recv x(((my$p * 8) - 0):(my$p * 8)) from (my$p - 1)", // the last loop: pipeline first
		"recv x((((my$p + 1) * 8) + 1)) from (my$p + 1)",
		"do i = MAX(2,((my$p * 8) + 1)),MIN(31,((my$p + 1) * 8))",
	}
	at := 0
	for _, want := range order {
		k := strings.Index(out[at:], want)
		if k < 0 {
			t.Fatalf("%q missing or out of order after offset %d:\n%s", want, at, out)
		}
		at += k + len(want)
	}

	blocking, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	early, _, _ := scheduled(t, src)
	cfg := machine.DefaultConfig(4)
	opts := spmd.Options{Init: rampInit(blocking)}
	want, err := spmd.Lower(blocking, cfg.P, nil, nil, nil).Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spmd.Lower(early, cfg.P, nil, nil, nil).Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Arrays, want.Arrays) || got.Stats.Messages != want.Stats.Messages || got.Stats.Words != want.Stats.Words {
		t.Errorf("arrays or traffic differ: %d/%d messages, %d/%d words", got.Stats.Messages, want.Stats.Messages, got.Stats.Words, want.Stats.Words)
	}
	if got.Stats.Time >= want.Stats.Time {
		t.Errorf("time %.1f, blocking %.1f: the early sends saved nothing", got.Stats.Time, want.Stats.Time)
	}
}

// TestChainMissed: each proof of the rule, failed by one chain, is a
// Missed remark that says which.
func TestChainMissed(t *testing.T) {
	nth := func(old, new string, n int) func(string) string {
		return func(s string) string { return replaceNth(s, old, new, n) }
	}
	for _, c := range []struct {
		name   string
		edit   func(string) string
		shifts []int
		why    string
	}{
		{"short chain", nil, []int{1, 1}, "a chain of 2 loops is shorter than P-1 = 3"},
		{"narrow block", nil, []int{1, 4, 5}, "read nothing this loop's shift receives"},
		{"reach", nth("+ 1)\n      enddo", "+ x((i + 8)))\n      enddo", 1), []int{1, 1, 1}, "read nothing this loop's shift receives"},
		{"step", nth("((my$p + 1) * 8))\n", "((my$p + 1) * 8)),1\n", 1), []int{1, 1, 1}, ""},
		{"step 2", nth("((my$p + 1) * 8))\n", "((my$p + 1) * 8)),2\n", 1), []int{1, 1, 1}, "non-unit step"},
		{"call", nth("      enddo", "        call f(x)\n      enddo", 1), []int{1, 1, 1}, "loop body holds a statement other than an assignment"},
		{"write", nth("      enddo", "        x((i + 1)) = 0.0\n      enddo", 1), []int{1, 1, 1}, "loop writes x away from x(i)"},
		{"subscript", nth("      enddo", "        y = x((2 * i))\n      enddo", 1), []int{1, 1, 1}, "a subscript of x is not i plus a constant"},
		{"send link", nth("to (my$p - 1)", "to (my$p + 1)", 2), []int{1, 1, 1}, "leave on different links"},
		{"recv link", nth("from (my$p + 1)", "from (my$p - 1)", 1), []int{1, 1, 1}, "arrive on different links"},
		{"cells", nth("recv x(((my$p * 8) - 0):(my$p * 8))", "recv x((((my$p + 1) * 8) + 1):(((my$p + 1) * 8) + 1))", 1), []int{1, 1, 1}, "deliver different cells"},
		{"loop variable", nth("to (my$p - 1)", "to ((my$p - 1) + (0 * i))", 2), []int{1, 1, 1}, "the next loop's shift reads i"},
		{"scalar", func(s string) string {
			s = nth("      enddo", "        q = 1\n      enddo", 1)(s)
			return nth("if ((my$p .LT. 3))", "if ((my$p .LT. (3 + (0 * q))))", 1)(s)
		}, []int{1, 1, 1}, "this loop's shift recv reads q"},
		{"bounds", nth("do i = MAX(2,", "do i = MAX((i - i),", 1), []int{1, 1, 1}, "the loop's bounds read i"},
		{"processor count", nth("if ((my$p .LT. 3)) then\n        send", "if ((my$p .LE. 2)) then\n        send", 1), []int{1, 1, 1}, "processor count not readable"},
	} {
		_, rs, n := applyTo(t, chainSrc(c.edit, c.shifts...))
		if c.why == "" { // the edit keeps the chain provable
			if n != 2 {
				t.Errorf("%s: applied %d, want 2: %v", c.name, n, rs)
			}
			continue
		}
		if !hasRemark(rs, explain.Missed, "overlap-chain", c.why) {
			t.Errorf("%s: no Missed remark saying %q: %v", c.name, c.why, rs)
		}
	}
}

// TestChainEnds: a message of another array ends a chain, and the last
// loop of a chain receives its pipeline first only
// where the two recvs provably commute.
func TestChainEnds(t *testing.T) {
	other := replaceNth(chainSrc(nil, 1, 1, 1, 1, 1), "recv x((((my$p + 1)", "recv y((((my$p + 1)", 2)
	if out, rs, n := applyTo(t, other); n != 2 || countRemarks(rs, "overlap-chain") != 2 {
		t.Errorf("the second loop receives y, so loops 3 to 5 are the one chain: applied %d, %v\n%s", n, rs, out)
	}
	// every shift recv is of another array: no loop is a pipelined loop
	// of x with its shift
	ys := strings.ReplaceAll(chainSrc(nil, 1, 1, 1), "recv x((((my$p + 1)", "recv y((((my$p + 1)")
	if _, rs, _ := applyTo(t, ys); countRemarks(rs, "overlap-chain") != 0 {
		t.Errorf("loops receiving y were taken for a chain of x: %v", rs)
	}
	// the last loop's shift arrives from the predecessor too: its recvs
	// share a link and keep their order
	src := replaceNth(chainSrc(nil, 1, 1, 1), "from (my$p + 1)", "from (my$p - 1)", 3)
	out, _, n := applyTo(t, src)
	last := out[strings.LastIndex(out, "enddo\n      if ((my$p .GT. 0)) then\n        send"):]
	shiftIn := strings.Index(last, "recv x((((my$p + 1) * 8) + 1)) from (my$p - 1)")
	pipeIn := strings.Index(last, "recv x(((my$p * 8) - 0):(my$p * 8)) from (my$p - 1)")
	if n != 2 || shiftIn < 0 || pipeIn < shiftIn {
		t.Errorf("applied %d; the last loop's recvs were reordered across one link:\n%s", n, last)
	}
}
