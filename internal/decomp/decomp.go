// Package decomp implements the semantics of Fortran D data
// decomposition: DECOMPOSITION / ALIGN / DISTRIBUTE statements, the
// distribution functions (BLOCK, CYCLIC, BLOCK_CYCLIC) that map global
// indices to owning processors and each processor to its local index
// set, and the volume of a remap between two distributions.
//
// The compiler supports the common case of the paper's programs: each
// array has at most one distributed dimension, laid out over a
// one-dimensional arrangement of n$proc processors.
package decomp

import (
	"fmt"
	"strings"

	"fortd/internal/ast"
)

// Decomp is the decomposition of one array: a distribution format per
// array dimension. It is the ⟨D⟩ component of the paper's reaching
// decomposition elements ⟨D, V⟩.
type Decomp struct {
	Specs []ast.DistSpec
}

// NewDecomp builds a Decomp from per-dimension formats.
func NewDecomp(specs ...ast.DistSpec) Decomp { return Decomp{Specs: specs} }

// Block and friends are convenient single-spec constructors.
var (
	Block       = ast.DistSpec{Kind: ast.DistBlock}
	Cyclic      = ast.DistSpec{Kind: ast.DistCyclic}
	Collapsed   = ast.DistSpec{Kind: ast.DistNone}
	Replicated  = Decomp{} // zero value: no dimension distributed
	replicatedK = "(replicated)"
)

// BlockCyclic returns a CYCLIC(k) spec.
func BlockCyclic(k int) ast.DistSpec {
	return ast.DistSpec{Kind: ast.DistBlockCyclic, BlockSize: k}
}

// Key returns a canonical string such as "(BLOCK,:)" used for set
// membership and cloning decisions.
func (d Decomp) Key() string {
	if len(d.Specs) == 0 {
		return replicatedK
	}
	parts := make([]string, len(d.Specs))
	for i, s := range d.Specs {
		parts[i] = s.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (d Decomp) String() string { return d.Key() }

// Equal reports whether two decompositions are identical: their keys
// are the same, decided on the specs without building the keys.
func (d Decomp) Equal(o Decomp) bool {
	if len(d.Specs) != len(o.Specs) {
		return false
	}
	for i, s := range d.Specs {
		if !s.Equal(o.Specs[i]) {
			return false
		}
	}
	return true
}

// IsReplicated reports whether no dimension is distributed.
func (d Decomp) IsReplicated() bool {
	for _, s := range d.Specs {
		if s.Kind != ast.DistNone {
			return false
		}
	}
	return true
}

// DistDim returns the index of the distributed dimension, or -1.
func (d Decomp) DistDim() int {
	for i, s := range d.Specs {
		if s.Kind != ast.DistNone {
			return i
		}
	}
	return -1
}

// Validate checks the single-distributed-dimension restriction.
func (d Decomp) Validate() error {
	n := 0
	for _, s := range d.Specs {
		if s.Kind != ast.DistNone {
			n++
		}
	}
	if n > 1 {
		return fmt.Errorf("decomp: %s has %d distributed dimensions; only one is supported", d.Key(), n)
	}
	return nil
}

// ApplyAlign derives the decomposition of an aligned array from the
// decomposition of its target. terms has one entry per target dimension;
// terms[k].ArrayDim names the array dimension aligned with target
// dimension k (or -1 when collapsed).
func ApplyAlign(terms []ast.AlignTerm, target Decomp, arrayRank int) Decomp {
	specs := make([]ast.DistSpec, arrayRank)
	for i := range specs {
		specs[i] = Collapsed
	}
	for k, t := range terms {
		if t.ArrayDim >= 0 && t.ArrayDim < arrayRank && k < len(target.Specs) {
			specs[t.ArrayDim] = target.Specs[k]
		}
	}
	return Decomp{Specs: specs}
}

// ---------------------------------------------------------------------------
// Dist: a decomposition bound to an array shape and machine size.

// Dist is a Decomp instantiated for a concrete array (global sizes) on a
// concrete machine (P processors). All index arithmetic is 1-based, as
// in Fortran.
type Dist struct {
	Decomp
	Sizes []int // global extent per dimension
	P     int
}

// NewDist binds a decomposition to array sizes and a machine size.
func NewDist(d Decomp, sizes []int, p int) (*Dist, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Specs) != 0 && len(d.Specs) != len(sizes) {
		return nil, fmt.Errorf("decomp: rank mismatch: %s vs %d sizes", d.Key(), len(sizes))
	}
	if p < 1 {
		return nil, fmt.Errorf("decomp: invalid processor count %d", p)
	}
	return &Dist{Decomp: d, Sizes: sizes, P: p}, nil
}

// MustDist is NewDist that panics on error (for tests and literals).
func MustDist(d Decomp, sizes []int, p int) *Dist {
	dist, err := NewDist(d, sizes, p)
	if err != nil {
		panic(err)
	}
	return dist
}

// BlockSize returns ceil(n/P) for the distributed dimension (block
// distributions), or the CYCLIC(k) block factor.
func (d *Dist) BlockSize() int {
	dim := d.DistDim()
	if dim < 0 {
		return 0
	}
	switch d.Specs[dim].Kind {
	case ast.DistBlock:
		n := d.Sizes[dim]
		return (n + d.P - 1) / d.P
	case ast.DistCyclic:
		return 1
	case ast.DistBlockCyclic:
		return d.Specs[dim].BlockSize
	}
	return 0
}

// SameOwners reports whether d and o deal indices out alike: the same
// format on the same P in blocks of the same size, so an index has one
// owner under both. Two BLOCK arrays of unequal extents share a format
// and not their owners.
func (d *Dist) SameOwners(o *Dist) bool {
	return d.Decomp.Equal(o.Decomp) && d.P == o.P && d.BlockSize() == o.BlockSize()
}

// OwnerIndex returns the owner by the distributed-dimension coordinate i.
func (d *Dist) OwnerIndex(i int) int {
	dim := d.DistDim()
	if dim < 0 {
		return 0
	}
	switch d.Specs[dim].Kind {
	case ast.DistBlock:
		b := d.BlockSize()
		o := (i - 1) / b
		if o >= d.P {
			o = d.P - 1
		}
		return o
	case ast.DistCyclic:
		return (i - 1) % d.P
	case ast.DistBlockCyclic:
		k := d.Specs[dim].BlockSize
		return ((i - 1) / k) % d.P
	}
	return 0
}

// RemapWords counts the array elements that physically move when the
// array is remapped from distribution d to distribution to: every
// element whose owner changes must be communicated. For the common
// block↔cyclic remap nearly all elements move; same-distribution remaps
// move nothing; a remap that changes the distributed *dimension*
// (e.g. (BLOCK,:) → (:,BLOCK)) moves everything except the elements
// whose old and new owners coincide.
func (d *Dist) RemapWords(to *Dist) int {
	if d.Key() == to.Key() {
		return 0
	}
	total := 1
	for _, n := range d.Sizes {
		total *= n
	}
	dimD := d.DistDim()
	dimT := to.DistDim()
	if dimD < 0 || dimT < 0 {
		return total
	}
	if dimD == dimT {
		// owner depends on the same coordinate in both distributions
		rest := total / d.Sizes[dimD]
		moved := 0
		for i := 1; i <= d.Sizes[dimD]; i++ {
			if d.OwnerIndex(i) != to.OwnerIndex(i) {
				moved++
			}
		}
		return moved * rest
	}
	// owners depend on different coordinates: count the pairs whose
	// owners differ, times the product of the remaining extents
	ni, nj := d.Sizes[dimD], to.Sizes[dimT]
	rest := total / (ni * nj)
	moved := 0
	for i := 1; i <= ni; i++ {
		oi := d.OwnerIndex(i)
		for j := 1; j <= nj; j++ {
			if oi != to.OwnerIndex(j) {
				moved++
			}
		}
	}
	return moved * rest
}
