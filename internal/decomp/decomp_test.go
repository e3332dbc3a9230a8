package decomp

import (
	"slices"
	"testing"
	"testing/quick"

	"fortd/internal/ast"
)

func TestDecompKey(t *testing.T) {
	cases := []struct {
		d    Decomp
		want string
	}{
		{NewDecomp(Block), "(BLOCK)"},
		{NewDecomp(Block, Collapsed), "(BLOCK,:)"},
		{NewDecomp(Collapsed, Block), "(:,BLOCK)"},
		{NewDecomp(Cyclic), "(CYCLIC)"},
		{NewDecomp(Collapsed, BlockCyclic(4)), "(:,CYCLIC(4))"},
		{Replicated, "(replicated)"},
	}
	for _, c := range cases {
		if got := c.d.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

func TestValidateRejectsTwoDistributedDims(t *testing.T) {
	d := NewDecomp(Block, Block)
	if err := d.Validate(); err == nil {
		t.Error("two distributed dimensions must be rejected")
	}
}

// TestApplyAlignPaperFigure4 reproduces §5.2: ALIGN Y(i,j) with X(j,i)
// and DISTRIBUTE X(BLOCK,:) gives Y the column distribution (:,BLOCK).
func TestApplyAlignPaperFigure4(t *testing.T) {
	terms := []ast.AlignTerm{{ArrayDim: 1}, {ArrayDim: 0}} // X(j,i)
	x := NewDecomp(Block, Collapsed)
	y := ApplyAlign(terms, x, 2)
	if y.Key() != "(:,BLOCK)" {
		t.Errorf("aligned Y = %s, want (:,BLOCK)", y.Key())
	}
}

func TestApplyAlignIdentity(t *testing.T) {
	terms := []ast.AlignTerm{{ArrayDim: 0}, {ArrayDim: 1}}
	x := NewDecomp(Block, Collapsed)
	if got := ApplyAlign(terms, x, 2); got.Key() != "(BLOCK,:)" {
		t.Errorf("identity align = %s", got.Key())
	}
}

func TestApplyAlignCollapsedTarget(t *testing.T) {
	terms := []ast.AlignTerm{{ArrayDim: -1}, {ArrayDim: 0}}
	x := NewDecomp(Block, Cyclic)
	if got := ApplyAlign(terms, x, 1); got.Key() != "(CYCLIC)" {
		t.Errorf("collapsed align = %s", got.Key())
	}
}

// owned lists the indices 1..n that dist gives processor p.
func owned(d *Dist, n, p int) []int {
	var out []int
	for i := 1; i <= n; i++ {
		if d.OwnerIndex(i) == p {
			out = append(out, i)
		}
	}
	return out
}

// TestBlockPaperExample reproduces §3.1: X(100) distributed BLOCK over 4
// processors gives each the local index set [1:25] (i.e. 25 elements),
// with processor p owning [25p+1 : 25p+25].
func TestBlockPaperExample(t *testing.T) {
	d := MustDist(NewDecomp(Block), []int{100}, 4)
	if b := d.BlockSize(); b != 25 {
		t.Fatalf("BlockSize = %d, want 25", b)
	}
	for p := 0; p < 4; p++ {
		if set := owned(d, 100, p); len(set) != 25 || set[0] != p*25+1 || set[24] != p*25+25 {
			t.Errorf("processor %d owns %v, want [%d:%d]", p, set, p*25+1, p*25+25)
		}
	}
	if o := d.OwnerIndex(26); o != 1 {
		t.Errorf("Owner(26) = %d, want 1", o)
	}
	if o := d.OwnerIndex(100); o != 3 {
		t.Errorf("Owner(100) = %d, want 3", o)
	}
}

func TestBlockUneven(t *testing.T) {
	d := MustDist(NewDecomp(Block), []int{10}, 4)
	// ceil(10/4)=3: owners get 3,3,3,1
	counts := []int{3, 3, 3, 1}
	for p, want := range counts {
		if got := len(owned(d, 10, p)); got != want {
			t.Errorf("processor %d owns %d elements, want %d", p, got, want)
		}
	}
	if o := d.OwnerIndex(10); o != 3 {
		t.Errorf("Owner(10) = %d, want 3", o)
	}
}

func TestCyclic(t *testing.T) {
	d := MustDist(NewDecomp(Cyclic), []int{10}, 4)
	if o := d.OwnerIndex(1); o != 0 {
		t.Errorf("Owner(1) = %d", o)
	}
	if o := d.OwnerIndex(5); o != 0 {
		t.Errorf("Owner(5) = %d", o)
	}
	if o := d.OwnerIndex(6); o != 1 {
		t.Errorf("Owner(6) = %d", o)
	}
	if set := owned(d, 10, 1); !slices.Equal(set, []int{2, 6, 10}) {
		t.Errorf("processor 1 owns %v", set)
	}
}

func TestBlockCyclic(t *testing.T) {
	d := MustDist(NewDecomp(BlockCyclic(2)), []int{12}, 3)
	// blocks of 2: [1,2]→0 [3,4]→1 [5,6]→2 [7,8]→0 ...
	if o := d.OwnerIndex(4); o != 1 {
		t.Errorf("Owner(4) = %d, want 1", o)
	}
	if o := d.OwnerIndex(7); o != 0 {
		t.Errorf("Owner(7) = %d, want 0", o)
	}
	if set := owned(d, 12, 0); !slices.Equal(set, []int{1, 2, 7, 8}) {
		t.Errorf("processor 0 owns %v", set)
	}
}

// Property: every index has exactly one owner in [0,P), and the owners
// follow the format: BLOCK hands out blocks of BlockSize in processor
// order, CYCLIC(k) deals blocks of k round-robin (CYCLIC: k = 1).
func TestOwnershipPartitionProperty(t *testing.T) {
	f := func(nRaw, pRaw, kindRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := int(pRaw%8) + 1
		var spec ast.DistSpec
		switch kindRaw % 3 {
		case 0:
			spec = Block
		case 1:
			spec = Cyclic
		default:
			spec = BlockCyclic(int(kindRaw%5) + 1)
		}
		d, err := NewDist(NewDecomp(spec), []int{n}, p)
		if err != nil {
			return false
		}
		b := d.BlockSize()
		for i := 1; i <= n; i++ {
			o := d.OwnerIndex(i)
			if o < 0 || o >= p {
				return false
			}
			if block := (i - 1) / b; spec.Kind == ast.DistBlock && o != block || spec.Kind != ast.DistBlock && o != block%p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRemapWords(t *testing.T) {
	from := MustDist(NewDecomp(Block), []int{100}, 4)
	to := MustDist(NewDecomp(Cyclic), []int{100}, 4)
	if w := from.RemapWords(from); w != 0 {
		t.Errorf("self remap moves %d words", w)
	}
	w := from.RemapWords(to)
	if w <= 0 || w > 100 {
		t.Errorf("block→cyclic moves %d words", w)
	}
	// block→cyclic on 100/4: indices where (i-1)/25 == (i-1)%4 stay put
	stay := 0
	for i := 1; i <= 100; i++ {
		if from.OwnerIndex(i) == to.OwnerIndex(i) {
			stay++
		}
	}
	if w != 100-stay {
		t.Errorf("RemapWords = %d, want %d", w, 100-stay)
	}
}

func TestReplicated(t *testing.T) {
	d := MustDist(Replicated, []int{50}, 4)
	if !d.IsReplicated() {
		t.Error("replicated not detected")
	}
	if o := d.OwnerIndex(7); o != 0 {
		t.Errorf("replicated owner = %d", o)
	}
}

// TestRemapWordsCrossDim: remapping between different distributed
// dimensions ((BLOCK,:) → (:,BLOCK)) moves every element whose row
// owner differs from its column owner — the transpose-style remap of
// alternating-sweep codes.
func TestRemapWordsCrossDim(t *testing.T) {
	from := MustDist(NewDecomp(Block, Collapsed), []int{8, 8}, 2)
	to := MustDist(NewDecomp(Collapsed, Block), []int{8, 8}, 2)
	w := from.RemapWords(to)
	// exact count: element (i,j) moves iff ownerRow(i) != ownerCol(j)
	moved := 0
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			if from.OwnerIndex(i) != to.OwnerIndex(j) {
				moved++
			}
		}
	}
	if w != moved || w == 0 {
		t.Errorf("RemapWords = %d, want %d (nonzero)", w, moved)
	}
}
