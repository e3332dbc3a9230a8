package sched

import (
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/explain"
	"fortd/internal/parser"
)

// applyTo parses an SPMD-level program (the pass runs post-codegen, so
// test inputs are written in the generated dialect: send/recv/broadcast
// statements, my$p, first$), applies the overlap pass, and returns the
// rewritten listing plus the remarks.
func applyTo(t *testing.T, src string) (string, []explain.Remark, int) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ec := explain.New()
	n := Apply(prog, ec)
	return ast.Print(prog), ec.Remarks(), n
}

func hasRemark(rs []explain.Remark, kind explain.Kind, name, substr string) bool {
	for _, r := range rs {
		if r.Kind == kind && r.Name == name && strings.Contains(r.Msg, substr) {
			return true
		}
	}
	return false
}

func countRemarks(rs []explain.Remark, name string) int {
	n := 0
	for _, r := range rs {
		if r.Name == name {
			n++
		}
	}
	return n
}

// TestHaloSplitApplied: the canonical stencil shape — guarded boundary
// send, guarded halo recv, then an independent compute loop — becomes
// postrecv / interior loop / waitrecv / peeled boundary iterations.
func TestHaloSplitApplied(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(0:9)
      REAL b(8)
      my$p = myproc()
      if ((my$p .GT. 0)) then
        send a(1:1) to (my$p - 1)
      endif
      if ((my$p .LT. 3)) then
        recv a(9:9) from (my$p + 1)
      endif
      do i = 1,8
        b(i) = (a(i) + a(i + 1))
      enddo
      END
`)
	if n != 1 {
		t.Errorf("applied = %d, want 1\n%s", n, out)
	}
	if !hasRemark(rs, explain.Applied, "overlap-halo", "wait sunk below interior i-loop (peel 0 low, 1 high)") {
		t.Errorf("missing Applied overlap-halo remark, got %v", rs)
	}
	for _, want := range []string{
		"postrecv a(9) from (my$p + 1) tag 1",
		"waitrecv a tag 1",
		"do i = 1,(8 - 1)", // interior shrunk by the peel
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rewritten listing lacks %q:\n%s", want, out)
		}
	}
	// the wait must come after the interior loop, the peel after the wait
	interior := strings.Index(out, "do i = 1,(8 - 1)")
	wait := strings.Index(out, "waitrecv a tag 1")
	peel := strings.Index(out, "do i = MAX(1,8),8")
	if !(interior < wait && wait < peel) || interior < 0 || peel < 0 {
		t.Errorf("post/compute/wait/peel out of order (interior=%d wait=%d peel=%d):\n%s",
			interior, wait, peel, out)
	}
}

// TestHaloSplitRecurrenceMissed: an ADI-style recurrence carries a
// dependence between iterations, so the peeled boundary rows cannot be
// deferred — the recv must stay blocking, with a remark saying why.
func TestHaloSplitRecurrenceMissed(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(0:9)
      REAL b(0:9)
      my$p = myproc()
      recv a(9:9) from (my$p + 1)
      do i = 1,8
        b(i) = (b(i - 1) + a(i + 1))
      enddo
      END
`)
	if n != 0 {
		t.Errorf("applied = %d, want 0\n%s", n, out)
	}
	if !hasRemark(rs, explain.Missed, "overlap-halo", "not accessed uniformly") {
		t.Errorf("missing Missed overlap-halo remark for the recurrence, got %v", rs)
	}
	if strings.Contains(out, "postrecv") {
		t.Errorf("recurrence loop was split anyway:\n%s", out)
	}
}

// TestHaloSplitScalarMissed: a scalar accumulation pins the combining
// order, so iterations cannot be reordered around the wait.
func TestHaloSplitScalarMissed(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(0:9)
      my$p = myproc()
      recv a(9:9) from (my$p + 1)
      do i = 1,8
        s = (s + a(i + 1))
      enddo
      END
`)
	if n != 0 {
		t.Errorf("applied = %d, want 0\n%s", n, out)
	}
	if !hasRemark(rs, explain.Missed, "overlap-halo", "scalar") {
		t.Errorf("missing Missed overlap-halo remark for scalar accumulation, got %v", rs)
	}
}

// TestBcastHoistApplied: the post rises above predecessors that
// provably don't write what the broadcast reads — including a call to
// a communication-free procedure that writes only its own actual.
func TestBcastHoistApplied(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(4)
      REAL c(4)
      my$p = myproc()
      c(1) = 2.0
      call work(c)
      broadcast a(1:4) from 0
      END
      SUBROUTINE work(y)
      REAL y(4)
      my$p = myproc()
      y(2) = 1.0
      END
`)
	if n != 1 {
		t.Errorf("applied = %d, want 1\n%s", n, out)
	}
	if !hasRemark(rs, explain.Applied, "overlap-bcast", "posted 3 statement(s) early") {
		t.Errorf("missing Applied overlap-bcast remark, got %v", rs)
	}
	post := strings.Index(out, "postbcast a(1:4) from 0")
	callSite := strings.Index(out, "call work(c)")
	wait := strings.Index(out, "waitbcast a")
	if !(post >= 0 && post < callSite && callSite < wait) {
		t.Errorf("post not hoisted over the comm-free call (post=%d call=%d wait=%d):\n%s",
			post, callSite, wait, out)
	}
}

// TestBcastHoistMissed: a predecessor writing the broadcast array
// blocks the hoist, and the remark names the blocker.
func TestBcastHoistMissed(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(4)
      my$p = myproc()
      a(1) = 0.0
      broadcast a(1:4) from 0
      END
`)
	if n != 0 {
		t.Errorf("applied = %d, want 0\n%s", n, out)
	}
	if !hasRemark(rs, explain.Missed, "overlap-bcast", "not posted early") {
		t.Errorf("missing Missed overlap-bcast remark, got %v", rs)
	}
	if strings.Contains(out, "postbcast") {
		t.Errorf("broadcast hoisted over a write to its own array:\n%s", out)
	}
}

// TestRedundantBcastEliminated: re-broadcasting a(k,k) from the same
// root right after a(1:8,k) moves data every processor already holds —
// the dgefa shape that motivated the elimination. The containment
// proof uses the declared extent of a's first dimension.
func TestRedundantBcastEliminated(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      my$p = myproc()
      k = 1
      broadcast a(1:8,k) from MOD((k - 1),4)
      t = (1 / a(k,k))
      broadcast a(k,k) from MOD((k - 1),4)
      END
`)
	if n < 1 {
		t.Errorf("applied = %d, want >= 1\n%s", n, out)
	}
	if !hasRemark(rs, explain.Applied, "overlap-redundant", "already delivered") {
		t.Errorf("missing Applied overlap-redundant remark, got %v", rs)
	}
	if strings.Contains(out, "a(k,k) from") {
		t.Errorf("covered broadcast survived:\n%s", out)
	}
}

// TestRedundantBcastKeptOnWrite: an intervening write to the array
// invalidates the covering broadcast's copy, so both must stay.
func TestRedundantBcastKeptOnWrite(t *testing.T) {
	out, rs, _ := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      my$p = myproc()
      k = 1
      broadcast a(1:8,k) from MOD((k - 1),4)
      a(k,k) = 1.0
      broadcast a(k,k) from MOD((k - 1),4)
      END
`)
	if c := countRemarks(rs, "overlap-redundant"); c != 0 {
		t.Errorf("elimination fired %d time(s) across a write, want 0: %v", c, rs)
	}
	if !strings.Contains(out, "a(k,k) from") {
		t.Errorf("second broadcast eliminated despite the intervening write:\n%s", out)
	}
}

// TestLookaheadApplied: the minimal LU elimination shape — pivot
// column broadcast at the top of the k-loop, owner-rotated root,
// cyclic trailing-matrix j-loop — is pipelined: column k+1's broadcast
// is posted by its owner right after the peeled first update, in
// flight during the rest of the j-loop.
func TestLookaheadApplied(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      my$p = myproc()
      n = 8
      do k = 1,(n - 1)
        broadcast a(1:8,k) from MOD((k - 1),4)
        do j = first$((my$p + 1),(k + 1),4),n,4
          do i = (k + 1),n
            a(i,j) = (a(i,j) - (a(i,k) * a(k,j)))
          enddo
        enddo
      enddo
      END
`)
	if n < 1 {
		t.Errorf("applied = %d, want >= 1\n%s", n, out)
	}
	if !hasRemark(rs, explain.Applied, "overlap-lookahead", "pipelined across k iterations") {
		t.Errorf("missing Applied overlap-lookahead remark, got %v", rs)
	}
	for _, want := range []string{
		"postbcast a(1:8,1) from MOD((1 - 1),4) tag 1",             // prologue: first column posted before the loop
		"waitbcast a tag 1",                                        // loop top: wait replaces the blocking broadcast
		"postbcast a(1:8,(k + 1)) from MOD(((k + 1) - 1),4) tag 1", // next column, posted mid-iteration
		"do j = first$((my$p + 1),((k + 1) + 1),4),n,4",            // j-loop rebased past the peeled column
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pipelined listing lacks %q:\n%s", want, out)
		}
	}
}

// TestLookaheadMissedOnRootMismatch: if the broadcast root does not
// rotate with the owner of the peeled column (congruence c1+c2 != 0
// mod s), the peel would broadcast a column its sender never updated —
// the pass must refuse and say why.
func TestLookaheadMissedOnRootMismatch(t *testing.T) {
	out, rs, _ := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      my$p = myproc()
      n = 8
      do k = 1,(n - 1)
        broadcast a(1:8,k) from MOD(k,4)
        do j = first$((my$p + 1),(k + 1),4),n,4
          do i = (k + 1),n
            a(i,j) = (a(i,j) - (a(i,k) * a(k,j)))
          enddo
        enddo
      enddo
      END
`)
	if !hasRemark(rs, explain.Missed, "overlap-lookahead", "") {
		t.Errorf("missing Missed overlap-lookahead remark, got %v", rs)
	}
	if c := countRemarks(rs, "overlap-lookahead"); c != 1 {
		t.Errorf("lookahead remarks = %d, want exactly 1 Missed: %v", c, rs)
	}
	if strings.Contains(out, "waitbcast a tag") && !strings.Contains(out, "broadcast a(1:8,k)") {
		t.Errorf("mismatched-root loop was pipelined anyway:\n%s", out)
	}
}

// TestRedundantBcastContainmentDirection: the covering broadcast is the
// earlier one. A narrower section after a wider one (constant offsets
// on both bounds) is removed; a wider one after a narrower one carries
// cells nobody has yet and must stay.
func TestRedundantBcastContainmentDirection(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(0:9)
      broadcast a(1:8) from 1
      broadcast a(2:3) from 1
      END
`)
	if n != 1 || !hasRemark(rs, explain.Applied, "overlap-redundant", "already delivered") || strings.Contains(out, "a(2:3)") {
		t.Errorf("narrower re-broadcast not removed (applied %d, %v):\n%s", n, rs, out)
	}
	out, rs, n = applyTo(t, `
      PROGRAM P
      REAL a(0:9)
      broadcast a(2:3) from 1
      broadcast a(1:8) from 1
      END
`)
	if n != 0 || countRemarks(rs, "overlap-redundant") != 0 || !strings.Contains(out, "a(1:8)") {
		t.Errorf("wider re-broadcast removed (applied %d, %v):\n%s", n, rs, out)
	}
}

// TestRedundantBcastReceivers: a re-broadcast is removed only when the
// covering broadcast reached every processor it reaches — no "to" clause,
// or one over the same dimension of the same array, at least as wide.
func TestRedundantBcastReceivers(t *testing.T) {
	for _, c := range []struct {
		first, second string
		removed       bool
	}{
		{" to a(:,2:8)", "", false},
		{" to a(:,3:8)", " to a(:,2:8)", false},
		{" to a(2:8,:)", " to a(:,2:8)", false},
		{" to b(:,2:8)", " to a(:,2:8)", false},
		{" to a(:,2:8)", " to a(:,3:8)", true},
		{" to a(:,(k + 1):8)", " to a(:,(k + 1):8)", true},
		{"", " to a(:,2:8)", true},
		{" to a(:,2:8) ring", " to a(:,2:8)", true},
		{" to a(:,2:8)", " to a(:,2:8) ring", true},
	} {
		out, _, n := applyTo(t, `
      PROGRAM P
      REAL a(8,8), b(8,8)
      k = 1
      broadcast a(1:8,k) from MOD((k - 1),4)`+c.first+`
      broadcast a(k,k) from MOD((k - 1),4)`+c.second+`
      END
`)
		if removed := !strings.Contains(out, "a(k,k) from"); removed != c.removed || n != map[bool]int{true: 1}[c.removed] {
			t.Errorf("%q then %q: re-broadcast removed %v (applied %d), want %v:\n%s", c.first, c.second, removed, n, c.removed, out)
		}
	}
}

// TestLookaheadCarriesReceivers: the pipelined post names the receivers of
// the iteration it is posted for, k+1 substituted into its "to" clause,
// and keeps the clause's shape, tree or ring.
func TestLookaheadCarriesReceivers(t *testing.T) {
	for _, shape := range []string{"", " ring"} {
		out, _, _ := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      my$p = myproc()
      n = 8
      do k = 1,(n - 1)
        broadcast a(1:8,k) from MOD((k - 1),4) to a(:,(k + 1):n)`+shape+`
        do j = first$((my$p + 1),(k + 1),4),n,4
          do i = (k + 1),n
            a(i,j) = (a(i,j) - (a(i,k) * a(k,j)))
          enddo
        enddo
      enddo
      END
`)
		for _, want := range []string{
			"postbcast a(1:8,1) from MOD((1 - 1),4) to a(:,(1 + 1):n)" + shape + " tag 1",
			"postbcast a(1:8,(k + 1)) from MOD(((k + 1) - 1),4) to a(:,((k + 1) + 1):n)" + shape + " tag 1",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("pipelined listing lacks %q:\n%s", want, out)
			}
		}
	}
}

// TestLookaheadMissedOnCommonWrite: the update loop's callee reaches
// the pivot array under its own name, through a COMMON block, not
// through an actual the column proof could follow — the lookahead
// twin of the root package's TestCommonWritesPinTheSchedule.
func TestLookaheadMissedOnCommonWrite(t *testing.T) {
	out, rs, n := applyTo(t, `
      PROGRAM P
      REAL a(8,8)
      COMMON /blk/ a
      my$p = myproc()
      n = 8
      do k = 1,(n - 1)
        broadcast a(1:8,k) from MOD((k - 1),4)
        do j = first$((my$p + 1),(k + 1),4),n,4
          call upd(n,k,j)
        enddo
      enddo
      END
      SUBROUTINE upd(n,k,j)
      REAL a(8,8)
      COMMON /blk/ a
      do i = (k + 1),n
        a(i,j) = (a(i,j) - (a(i,k) * a(k,j)))
      enddo
      END
`)
	if n != 0 || strings.Contains(out, "postbcast") {
		t.Errorf("applied = %d, want 0:\n%s", n, out)
	}
	if !hasRemark(rs, explain.Missed, "overlap-lookahead", "call upd may write a (COMMON /blk/)") {
		t.Errorf("missing Missed overlap-lookahead remark naming the block, got %v", rs)
	}
}

// TestMotionRuleAtCalls: what a call lets a broadcast move across it is
// read off the callee's summary. An array-element actual stands for its
// array (the callee may write through it); an expression actual is a
// value; a callee nobody defines, and any call of a recursive program,
// may do anything.
func TestMotionRuleAtCalls(t *testing.T) {
	const callees = `
      SUBROUTINE rd(z)
      y = (z + 1)
      END
      SUBROUTINE wr(z)
      z = (z + 1)
      END
`
	const recursive = `
      SUBROUTINE loop(z)
      call loop(z)
      END
`
	for _, c := range []struct{ call, missed, more string }{
		{"call rd(a(2))", "", ""},
		{"call rd((k + 1))", "", ""},
		{"call wr(a(2))", "call wr may write a", ""},
		{"call wr(k)", "call wr may write k", ""},
		{"call nosuch(c)", "call to unknown procedure nosuch", ""},
		{"call rd(c)", "call rd is part of a recursive program", recursive},
	} {
		src := `
      PROGRAM P
      REAL a(4)
      REAL c(4)
      k = 1
      ` + c.call + `
      broadcast a(k:4) from 0
      END
` + callees + c.more
		out, rs, n := applyTo(t, src)
		if c.missed == "" {
			if n != 1 || !strings.Contains(out, "postbcast a(k:4) from 0 tag 1\n      "+c.call) {
				t.Errorf("%s: broadcast not posted above the call (applied %d, %v):\n%s", c.call, n, rs, out)
			}
		} else if n != 0 || !hasRemark(rs, explain.Missed, "overlap-bcast", c.missed) {
			t.Errorf("%s: applied %d, want a Missed remark saying %q, got %v", c.call, n, c.missed, rs)
		}
	}
}
