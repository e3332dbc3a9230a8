package spmd

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fortd/internal/decomp"
	"fortd/internal/machine"
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
