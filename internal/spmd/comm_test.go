package spmd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fortd/internal/decomp"
	"fortd/internal/machine"
	"fortd/internal/trace"
)

// TestBroadcastErrorsOutsideReceivers pins that deciding a broadcast's
// group before its section hides no error: processor 0, outside the
// group, fails first with the error a member would meet — a rank
// mismatch, a bad root, an unknown "to" array, a bound that fails to
// evaluate in the section, the root or the clause — and aborts the rest;
// an empty section fails nowhere and sends nothing, whatever its root,
// rank or clause. The rows marked "holds nothing" give processor 0 no
// element of the clause's array, so it leaves before the group is
// worked out, and still meets every error first.
func TestBroadcastErrorsOutsideReceivers(t *testing.T) {
	// a(:,BLOCK) on 4: columns 7:8 are processor 3's and the root is 2,
	// so processors 0 and 1 are outside
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Block), []int{8, 8}, 4)
	// a(8,2:3) (:,CYCLIC) on 4: column 2 is processor 1's and column 3
	// processor 2's, so processors 0 and 3 hold nothing
	idle := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{8, 2}, 4)
	for _, tc := range []struct {
		name, sec, root, to, want string
		msgs                      int64 // when nothing fails
	}{
		{"rank", "a(1:8)", "2", "a(:,7:8)", "%s a: section has 1 dimensions, the array 2", 0},
		{"bad root", "a(1:8,2)", "7", "a(:,7:8)", "%s a: bad root 7", 0},
		{"unknown to array", "a(1:8,2)", "2", "b(:,7:8)", "%s a: unknown array in to clause", 0},
		{"section bound", "a(1:8,MOD(2,z))", "2", "a(:,7:8)", "P:5: MOD by zero (divisor 0)", 0},
		{"root", "a(1:8,2)", "MOD(2,z)", "a(:,7:8)", "P:5: MOD by zero (divisor 0)", 0},
		{"to bound", "a(1:8,2)", "2", "a(:,MOD(7,z):8)", "P:5: MOD by zero (divisor 0)", 0},
		{"empty", "a(1:8,3:2)", "2", "a(:,7:8)", "", 0},
		{"empty, bad root", "a(1:8,3:2)", "7", "a(:,7:8)", "", 0},
		{"empty, root", "a(1:8,3:2)", "MOD(2,z)", "a(:,7:8)", "", 0},
		{"empty, to bound", "a(1:8,3:2)", "2", "a(:,MOD(7,z):8)", "", 0},
		{"empty, rank", "a(3:2)", "2", "a(:,7:8)", "", 0},
		{"holds nothing, bad root", "a(1:8,2)", "7", "a(:,3:3)", "%s a: bad root 7", 0},
		{"holds nothing, root", "a(1:8,2)", "MOD(1,z)", "a(:,3:3)", "P:5: MOD by zero (divisor 0)", 0},
		{"holds nothing, to bound", "a(1:8,2)", "1", "a(:,MOD(3,z):3)", "P:5: MOD by zero (divisor 0)", 0},
		{"holds nothing, unknown to array", "a(1:8,2)", "1", "b(:,3:3)", "%s a: unknown array in to clause", 0},
		{"holds nothing", "a(1:8,2)", "1", "a(:,3:3)", "", 1},
		{"holds nothing, the root", "a(1:8,2)", "0", "a(:,3:3)", "", 1},
		{"holds nothing, clause on a collapsed dimension", "a(1:8,3)", "2", "a(1:8,:) ring", "", 3}, // p0 passes it on to p1
	} {
		decl, d := "a(8,8)", dist
		if strings.HasPrefix(tc.name, "holds nothing") {
			decl, d = "a(8,2:3)", idle
		}
		for _, what := range []string{"broadcast", "postbcast"} {
			st := fmt.Sprintf("broadcast %s from %s to %s", tc.sec, tc.root, tc.to)
			if what == "postbcast" {
				st = fmt.Sprintf("postbcast %s from %s to %s tag 1\n      waitbcast a tag 1", tc.sec, tc.root, tc.to)
			}
			prog := parseProg(t, `
      PROGRAM P
      REAL `+decl+`
      z = 0
      `+st+`
      END
`)
			res, err := Lower(prog, 4, map[string]*decomp.Dist{"a": d}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
			want := "<nil>"
			if tc.want != "" {
				want = "p0: " + strings.Replace(tc.want, "%s", what, 1)
				for p := 1; p < 4; p++ {
					want += fmt.Sprintf("\np%d: aborted by p0 in compute, clock 0.0µs", p)
				}
			}
			if got := fmt.Sprint(err); got != want {
				t.Errorf("%s, %s: error\n%s\nwant\n%s", what, tc.name, got, want)
			}
			if err == nil && res.Stats.Messages != tc.msgs {
				t.Errorf("%s, %s: %d messages, want %d", what, tc.name, res.Stats.Messages, tc.msgs)
			}
		}
	}
}

// TestSplitPhaseLabels pins the trace label of each split-phase half
// (ast.MsgKind.Label) where it shows: the events of a run, named by the
// statement whose line they carry, and the report of an abort inside a
// wait. A table that swapped two labels runs to the same arrays and
// clocks, so only the names can tell.
func TestSplitPhaseLabels(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL a(8), b(8)
      my$p = myproc()
      if (my$p .EQ. 0) then
        send a(1:2) to 1
      endif
      if (my$p .EQ. 1) then
        postrecv a(1:2) from 0 tag 1
      endif
      postbcast b(1:4) from 0 tag 2
      if (my$p .EQ. 1) then
        waitrecv a tag 1
      endif
      waitbcast b tag 2
      END
`)
	tr := trace.New()
	if _, err := Lower(prog, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	// line: the kinds and names of the events carrying it, in order
	got := map[int][]string{}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSend || ev.Kind == trace.KindWait {
			got[ev.Line] = append(got[ev.Line], fmt.Sprintf("%v %s", ev.Kind, ev.Name))
		}
	}
	for line, want := range map[int]string{
		7:  "send send",  // the send the postrecv completes from
		10: "",           // a post of a receive sends nothing
		12: "send bcast", // the root's half of the postbcast
		14: "wait wait",  // the waitrecv
		16: "wait bcast", // the waitbcast
	} {
		if s := strings.Join(got[line], ", "); s != want {
			t.Errorf("line %d: events %q, want %q", line, s, want)
		}
	}

	// the receive nobody sends: the waitrecv blocks, and the deadlock
	// report names the wait
	stuck := parseProg(t, `
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL a(8)
      my$p = myproc()
      if (my$p .EQ. 1) then
        postrecv a(1:2) from 0 tag 1
        waitrecv a tag 1
      endif
      END
`)
	_, err := Lower(stuck, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	var de *machine.DeadlockError
	if !errors.As(err, &de) || len(de.Blocked) != 1 || de.Blocked[0].Op != "wait" || de.Blocked[0].Line != 8 {
		t.Errorf("a stuck waitrecv: error %v, want a deadlock with p1 blocked in wait at P:8", err)
	}

	// p0 (whose postrecv from itself is nothing) fails before p1 runs,
	// and p1 unwinds at its postrecv, a cancellation point: its
	// AbortError names the post
	failed := parseProg(t, `
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL a(8)
      postrecv a(1:2) from 0 tag 1
      a(9) = 1.0
      waitrecv a tag 1
      END
`)
	_, err = Lower(failed, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	var ae *machine.AbortError
	if !errors.As(err, &ae) || ae.PID != 1 || ae.Op != "post" || ae.Line != 5 {
		t.Errorf("an abort at a postrecv: error %v, want p1 unwound in post at P:5", err)
	}
}
