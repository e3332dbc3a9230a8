// Package rsd implements regular section descriptors (RSDs), the array
// summary representation used throughout the Fortran D compiler for
// index sets, iteration sets, and communication sets [Havlak & Kennedy].
// A section is a rectangular region described by one Dim per array
// dimension in Fortran 90 triplet notation. A Dim may be anchored to a
// symbolic variable (typically a loop index of an *enclosing* procedure),
// which is how nonlocal index sets such as [26:30, i] are delayed and
// later expanded in the caller where the variable's range is known.
package rsd

import (
	"fmt"
	"strings"
)

// Dim describes one dimension of a section, [lo : hi : Step], each end
// bounded by its own optional symbolic anchor plus a constant offset:
// lo = LoVar+Lo and hi = HiVar+Hi, an empty anchor meaning the constant
// alone. [26:30] anchors neither end; [i-1 : i+1], an offset window
// around a variable whose value (or range) is unknown locally, anchors
// both at i; [k+1 : n] and [k+1 : 128] are the read ranges of a loop
// whose bounds are affine in formals (§5.4). Ends under different
// anchors are incomparable, so every operation is conservative there.
type Dim struct {
	Lo, Hi       int
	Step         int    // 0 or 1 mean unit stride
	LoVar, HiVar string // symbolic anchors, "" for constant ends
}

// Point returns a degenerate dimension covering the single index i.
func Point(i int) Dim { return Dim{Lo: i, Hi: i, Step: 1} }

// Range returns the dimension [lo:hi].
func Range(lo, hi int) Dim { return Dim{Lo: lo, Hi: hi, Step: 1} }

// Strided returns the dimension [lo:hi:step].
func Strided(lo, hi, step int) Dim { return Dim{Lo: lo, Hi: hi, Step: step} }

// SymPoint returns the dimension [v+off : v+off] anchored at variable v.
func SymPoint(v string, off int) Dim { return SymRange(v, off, off) }

// SymRange returns the dimension [v+lo : v+hi] anchored at variable v.
func SymRange(v string, lo, hi int) Dim { return Dim{Lo: lo, Hi: hi, Step: 1, LoVar: v, HiVar: v} }

func (d Dim) step() int {
	if d.Step <= 0 {
		return 1
	}
	return d.Step
}

// Anchors reports whether either end is anchored at v.
func (d Dim) Anchors(v string) bool { return d.LoVar == v || d.HiVar == v }

// sameAnchors reports whether the ends of d and o are pairwise
// comparable.
func (d Dim) sameAnchors(o Dim) bool { return d.LoVar == o.LoVar && d.HiVar == o.HiVar }

// Empty reports whether the dimension provably covers no indices; ends
// under different anchors cannot be compared, so it then may cover some.
func (d Dim) Empty() bool { return d.LoVar == d.HiVar && d.Hi < d.Lo }

func (d Dim) String() string {
	fmtEnd := func(pre string, v int) string {
		switch {
		case pre == "":
			return fmt.Sprintf("%d", v)
		case v == 0:
			return pre
		}
		return fmt.Sprintf("%s%+d", pre, v)
	}
	if d.Empty() {
		return "∅"
	}
	if d.Lo == d.Hi && d.LoVar == d.HiVar {
		return fmtEnd(d.LoVar, d.Lo)
	}
	s := fmtEnd(d.LoVar, d.Lo) + ":" + fmtEnd(d.HiVar, d.Hi)
	if d.step() != 1 {
		s += fmt.Sprintf(":%d", d.Step)
	}
	return s
}

// Section is a rectangular region of the named array.
type Section struct {
	Array string
	Dims  []Dim
}

// New builds a section over array with the given dimensions.
func New(array string, dims ...Dim) *Section {
	return &Section{Array: array, Dims: dims}
}

// Symbolic reports whether an end of a dimension is anchored at a
// scalar, so that only where the scalar is known is it known which part
// of the array this is.
func (s *Section) Symbolic() bool {
	for _, d := range s.Dims {
		if d.LoVar != "" || d.HiVar != "" {
			return true
		}
	}
	return false
}

// Anchors reports whether an end of any dimension is anchored at v.
func (s *Section) Anchors(v string) bool {
	for _, d := range s.Dims {
		if d.Anchors(v) {
			return true
		}
	}
	return false
}

func (s *Section) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	return s.Array + "[" + strings.Join(parts, ",") + "]"
}

// Clone returns a deep copy.
func (s *Section) Clone() *Section {
	return &Section{Array: s.Array, Dims: append([]Dim(nil), s.Dims...)}
}

// Equal reports structural equality.
func (s *Section) Equal(o *Section) bool {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		a, b := s.Dims[i], o.Dims[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.step() != b.step() || !a.sameAnchors(b) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Set operations

// mergeableDim reports whether two dimensions can be unioned into a
// single triplet without loss of precision, and returns the union.
func mergeableDim(a, b Dim) (Dim, bool) {
	if !a.sameAnchors(b) || a.step() != b.step() {
		return Dim{}, false
	}
	st := a.step()
	if st == 1 && a.LoVar == a.HiVar {
		// adjacent or overlapping unit ranges merge
		if a.Lo > b.Lo {
			a, b = b, a
		}
		if b.Lo <= a.Hi+1 {
			return Dim{Lo: a.Lo, Hi: max(a.Hi, b.Hi), Step: 1, LoVar: a.LoVar, HiVar: a.LoVar}, true
		}
		return Dim{}, false
	}
	// strided, or ends under different anchors: equal ranges only
	if a.Lo == b.Lo && a.Hi == b.Hi {
		return a, true
	}
	return Dim{}, false
}

// Union merges two sections into one if no precision is lost (the merge
// condition the paper applies when propagating RSDs). ok is false when a
// precise single-section union does not exist.
func Union(a, b *Section) (*Section, bool) {
	if a.Array != b.Array || len(a.Dims) != len(b.Dims) {
		return nil, false
	}
	// identical in all but at most one dimension, which must merge
	diff := -1
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			if diff >= 0 {
				return nil, false
			}
			diff = i
		}
	}
	if diff < 0 {
		return a.Clone(), true
	}
	m, ok := mergeableDim(a.Dims[diff], b.Dims[diff])
	if !ok {
		return nil, false
	}
	out := a.Clone()
	out.Dims[diff] = m
	return out, true
}

// MergeList folds the sections into a minimal list, merging pairs
// whenever Union succeeds without precision loss.
func MergeList(secs []*Section) []*Section {
	out := append([]*Section(nil), secs...)
	for changed := true; changed; {
		changed = false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if m, ok := Union(out[i], out[j]); ok {
					out[i] = m
					out = append(out[:j], out[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return out
}

// Contains reports whether section a provably covers all of section b
// (both unit-stride, each end of a under the same anchor as b's).
func Contains(a, b *Section) bool {
	if a.Array != b.Array || len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		da, db := a.Dims[i], b.Dims[i]
		if !da.sameAnchors(db) || da.step() != 1 || db.step() != 1 {
			return false
		}
		if db.Lo < da.Lo || db.Hi > da.Hi {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Symbolic expansion and call-site translation

// Bind replaces an anchor with the range r it takes: a lower end
// anchored at v becomes r's lower end plus its offset, an upper end r's
// upper end plus its offset, each end keeping r's anchor (a loop
// do j = k+1, n binds j to [k+1 : n]). This is the expansion the
// compiler performs when a delayed RSD reaches the procedure that owns
// the anchoring loop.
func (s *Section) Bind(v string, r Dim) *Section {
	out := s.Clone()
	for i := range out.Dims {
		d := &out.Dims[i]
		if d.Anchors(v) {
			d.Step = d.step()
		}
		if d.LoVar == v {
			d.LoVar, d.Lo = r.LoVar, r.Lo+d.Lo
		}
		if d.HiVar == v {
			d.HiVar, d.Hi = r.HiVar, r.Hi+d.Hi
		}
	}
	return out
}

// Disjoint reports whether sections a and b provably share no element:
// they name different arrays (Fortran D forbids aliasing them, §6.4) or
// in some dimension one ends below where the other begins, the two
// facing ends being constants or offsets from one anchor. dgefa's
// a[k+1:n, k+1:j-1] and a[k+1:n, k] are disjoint in their columns.
func Disjoint(a, b *Section) bool {
	if a.Array != b.Array {
		return true
	}
	if len(a.Dims) != len(b.Dims) {
		return false // reshaped: cannot tell
	}
	for i, da := range a.Dims {
		db := b.Dims[i]
		if da.Empty() || db.Empty() || da.HiVar == db.LoVar && da.Hi < db.Lo || db.HiVar == da.LoVar && db.Hi < da.Lo {
			return true
		}
	}
	return false
}
