package rsd

import (
	"testing"
	"testing/quick"
)

func TestDimString(t *testing.T) {
	cases := []struct {
		d    Dim
		want string
	}{
		{Range(1, 25), "1:25"},
		{Point(7), "7"},
		{Strided(2, 100, 4), "2:100:4"},
		{SymPoint("i", 0), "i"},
		{SymPoint("i", 5), "i+5"},
		{SymPoint("i", -3), "i-3"},
		{SymRange("i", 1, 5), "i+1:i+5"},
		{Dim{Lo: 5, Hi: 2, Step: 1}, "∅"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Dim%v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestSectionString(t *testing.T) {
	s := New("X", Range(26, 30), Range(1, 100))
	if got := s.String(); got != "X[26:30,1:100]" {
		t.Errorf("String() = %q", got)
	}
	if s.Dims[0].Empty() || !Range(1, 0).Empty() {
		t.Error("26:30 is not empty, 1:0 is")
	}
}

func TestUnionMergeable(t *testing.T) {
	a := New("X", Range(1, 5), Range(1, 100))
	b := New("X", Range(6, 10), Range(1, 100))
	m, ok := Union(a, b)
	if !ok {
		t.Fatal("adjacent sections should merge")
	}
	if !m.Equal(New("X", Range(1, 10), Range(1, 100))) {
		t.Errorf("Union = %v", m)
	}
}

func TestUnionPrecisionLoss(t *testing.T) {
	a := New("X", Range(1, 5), Range(1, 50))
	b := New("X", Range(6, 10), Range(51, 100))
	if _, ok := Union(a, b); ok {
		t.Error("diagonal union must be rejected (precision loss)")
	}
}

func TestUnionDisjointGap(t *testing.T) {
	a := New("X", Range(1, 5))
	b := New("X", Range(8, 10))
	if _, ok := Union(a, b); ok {
		t.Error("gapped union must be rejected")
	}
}

func TestMergeList(t *testing.T) {
	secs := []*Section{
		New("X", Range(1, 5)),
		New("X", Range(11, 20)),
		New("X", Range(6, 10)),
	}
	out := MergeList(secs)
	if len(out) != 1 || !out[0].Equal(New("X", Range(1, 20))) {
		t.Errorf("MergeList = %v", out)
	}
}

func TestContains(t *testing.T) {
	outer := New("X", Range(1, 30), Range(1, 100))
	inner := New("X", Range(26, 30), Range(1, 100))
	if !Contains(outer, inner) {
		t.Error("outer should contain inner")
	}
	if Contains(inner, outer) {
		t.Error("inner must not contain outer")
	}
}

// TestBindCommExample reproduces the §5.4 communication optimization
// example: the nonlocal index set [26:30, i] computed in F1$row is
// translated into the caller where loop i spans [1:100], expanding to
// [26:30, 1:100].
func TestBindCommExample(t *testing.T) {
	delayed := New("Z", Range(26, 30), SymPoint("i", 0))
	expanded := delayed.Bind("i", Range(1, 100))
	want := New("Z", Range(26, 30), Range(1, 100))
	if !expanded.Equal(want) {
		t.Errorf("Bind = %v, want %v", expanded, want)
	}
}

func TestBindWithOffset(t *testing.T) {
	// X(i+5) referenced under no local loop → [i+5:i+5]; caller's loop
	// i = 1,95 expands it to [6:100].
	d := New("X", SymPoint("i", 5))
	got := d.Bind("i", Range(1, 95))
	if !got.Equal(New("X", Range(6, 100))) {
		t.Errorf("Bind = %v, want X[6:100]", got)
	}
}

// TestBindAnchoredRange: a loop do j = k+1, n binds j to a range whose
// ends keep their own anchors.
func TestBindAnchoredRange(t *testing.T) {
	d := New("a", Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}, SymPoint("j", 0))
	got := d.Bind("j", Dim{Lo: 1, Hi: 0, LoVar: "k", HiVar: "n"})
	if got.String() != "a[k+1:n,k+1:n]" {
		t.Errorf("Bind = %v, want a[k+1:n,k+1:n]", got)
	}
}

// TestDisjoint is the one overlap test of the hoist predicate: two
// sections are disjoint when, in some dimension, the facing ends are
// constants or offsets from one anchor and one ends below the other.
func TestDisjoint(t *testing.T) {
	kRange := Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}
	for _, c := range []struct {
		name string
		a, b *Section
		want bool
	}{
		{"constant ranges apart", New("X", Range(1, 10)), New("X", Range(11, 20)), true},
		{"constant ranges touching", New("X", Range(1, 10)), New("X", Range(10, 20)), false},
		{"other array", New("X", Range(1, 10)), New("Y", Range(1, 10)), true},
		{"dgefa: columns k+1:n against column k", New("a", kRange, kRange), New("a", kRange, SymPoint("k", 0)), true},
		{"dgefa: earlier columns k+1:j-1 against column j", New("a", kRange, Dim{Lo: 1, Hi: -1, LoVar: "k", HiVar: "j"}), New("a", kRange, SymPoint("j", 0)), true},
		{"same window", New("X", SymPoint("i", 0)), New("X", SymPoint("i", 0)), false},
		{"windows apart on one anchor", New("X", SymRange("i", -2, -1)), New("X", SymRange("i", 0, 1)), true},
		{"ends under different anchors", New("X", Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}), New("X", SymPoint("m", 0)), false},
		{"one dimension apart is enough", New("X", Range(1, 100), Range(1, 5)), New("X", Range(1, 100), Range(6, 9)), true},
		{"reshaped", New("X", Range(1, 10)), New("X", Range(20, 30), Range(1, 1)), false},
		{"empty", New("X", Range(5, 4)), New("X", Range(1, 10)), true},
	} {
		if got := Disjoint(c.a, c.b); got != c.want {
			t.Errorf("%s: Disjoint(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if got := Disjoint(c.b, c.a); got != c.want {
			t.Errorf("%s: Disjoint(%v, %v) = %v, want %v", c.name, c.b, c.a, got, c.want)
		}
	}
}

// Property: Union, when it succeeds, covers exactly the two inputs.
func TestUnionExactProperty(t *testing.T) {
	f := func(alo, aw, blo, bw uint8) bool {
		a := New("X", Range(int(alo)+1, int(alo)+1+int(aw%20)))
		b := New("X", Range(int(blo)+1, int(blo)+1+int(bw%20)))
		m, ok := Union(a, b)
		if !ok {
			return true
		}
		// every element of m is in a or b: sampled check over the range
		for i := m.Dims[0].Lo; i <= m.Dims[0].Hi; i++ {
			inA := i >= a.Dims[0].Lo && i <= a.Dims[0].Hi
			inB := i >= b.Dims[0].Lo && i <= b.Dims[0].Hi
			if !inA && !inB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSymbolicDetection(t *testing.T) {
	if New("X", Range(1, 5)).Symbolic() {
		t.Error("constant section reported symbolic")
	}
	if !New("X", Range(1, 5), SymPoint("i", 0)).Symbolic() {
		t.Error("symbolic section not detected")
	}
	// a range between two anchors is known only where they are, as is
	// one anchored at one end
	if !New("X", Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}).Symbolic() {
		t.Error("a range anchored at its ends apart not detected")
	}
	if !New("X", Dim{Lo: 3, Hi: 0, Step: 1, HiVar: "n"}).Symbolic() {
		t.Error("a range anchored at its upper end not detected")
	}
}
