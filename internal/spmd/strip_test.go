package spmd

import "testing"

// TestStripDisjoint is the table of the entry check of a loop with a
// strip form (strip.disjoint): which positioned cursors may run in
// strips. Statement 0 writes cursor 0.
func TestStripDisjoint(t *testing.T) {
	a, b := make([]float64, 64), make([]float64, 64)
	for _, tc := range []struct {
		name string
		curs []cursor // curs[0] is written
		n    int
		want bool
	}{
		{"other arrays", []cursor{{a, 0, 1}, {b, 1, 1}, {b, 0, 1}}, 32, true},
		{"the element it writes", []cursor{{a, 3, 2}, {a, 3, 2}}, 20, true},
		{"one element, one iteration", []cursor{{a, 5, 0}, {a, 5, 0}}, 1, true},
		{"one element of a moving loop", []cursor{{a, 5, 0}, {b, 0, 1}}, 2, false},
		{"behind it", []cursor{{a, 1, 1}, {a, 0, 1}}, 32, false},
		{"ahead of it", []cursor{{a, 1, 1}, {a, 2, 1}}, 32, false},
		{"the same start at another stride", []cursor{{a, 0, 2}, {a, 0, 1}}, 16, false},
		{"an invariant element in its range", []cursor{{a, 0, 1}, {a, 10, 0}}, 32, false},
		{"an invariant element past its range", []cursor{{a, 0, 1}, {a, 40, 0}}, 32, true},
		{"the other half", []cursor{{a, 0, 1}, {a, 32, 1}}, 32, true},
		{"backwards into the other half", []cursor{{a, 63, -1}, {a, 31, -1}}, 32, true},
		{"backwards over its reads", []cursor{{a, 63, -1}, {a, 40, 1}}, 16, false},
		{"interleaved", []cursor{{a, 0, 2}, {a, 1, 2}}, 32, true},
		{"interleaved backwards", []cursor{{a, 63, -3}, {a, 62, -3}}, 20, true},
		{"on its lattice, further on", []cursor{{a, 0, 3}, {a, 6, 3}}, 20, false},
		{"across its lattice at another stride", []cursor{{a, 0, 2}, {a, 1, 3}}, 20, false},
		{"interleaved rows of another array", []cursor{{a, 0, 8}, {b, 0, 8}, {a, 3, 8}}, 8, true},
	} {
		sp := &strip{stmts: []stripStmt{{w: 0}}}
		if got := sp.disjoint(tc.curs, tc.n); got != tc.want {
			t.Errorf("%s: disjoint %v, want %v", tc.name, got, tc.want)
		}
	}
}
