package sched

import (
	"fmt"
	"math/rand"
	"strings"
)

// genProgram draws one SPMD-dialect program for p processors from seed:
// a main program (and sometimes a phase subroutine it calls) whose body
// is a sequence of scenes, each the shape one transform of the pass
// looks for with the details that decide Applied or Missed drawn at
// random — stencil exchanges in front of a compute loop, broadcasts
// behind a prefix of assignments and calls, re-broadcasts of a section
// already delivered, rotating-root elimination loops, and sometimes a
// chain of pipelined loops before the trailer. Every program
// runs to completion on p processors: sends and recvs pair up, every
// subscript is in bounds, nothing divides. Each processor's copy of the
// arrays starts out different (the initial values depend on my$p) and
// the trailer folds every array of every processor into r(1), so a
// statement moved across something it should not have crossed shows in
// the result.
//
// No COMMON block: what the pass does at a call that writes through
// one is tested on its own (TestCommon*).
func genProgram(seed int64, p int) (src string, rebcasts int) {
	g := &gen{r: rand.New(rand.NewSource(seed)), p: p}
	g.line("PROGRAM G")
	g.line("PARAMETER (n$proc = %d)", p)
	g.decls()
	g.line("REAL r(4)")
	g.line("my$p = myproc()")
	g.line("do i = 0,15")
	g.line("  a(i) = ((0.5 * i) + my$p)")
	g.line("  b(i) = ((0.25 * i) - my$p)")
	g.line("  c(i) = (i + (2 * my$p))")
	g.line("  do j = 0,9")
	g.line("    u(i,j) = (((0.5 * i) + (0.25 * j)) + my$p)")
	g.line("    v(i,j) = ((i - j) + (0.5 * my$p))")
	g.line("  enddo")
	g.line("enddo")
	g.line("do i = 1,8")
	g.line("  do j = 1,8")
	g.line("    w(i,j) = (((0.25 * i) + (0.125 * j)) + my$p)")
	g.line("  enddo")
	g.line("enddo")
	g.scalars()
	phase := g.r.Intn(3) == 0
	scenes := 3 + g.r.Intn(4)
	callAt := g.r.Intn(scenes)
	for i := 0; i < scenes; i++ {
		if phase && i == callAt {
			g.line("call ph1(a,b,c,u,v,w)")
		}
		g.scene()
	}
	// drawn from a stream of its own, so a program without one is the
	// program this seed always drew
	if cr := rand.New(rand.NewSource(^seed)); cr.Intn(9) < 4 {
		g.chain(cr)
	}
	g.line("s = 0")
	g.line("do i = 0,15")
	g.line("  s = (s + ((a(i) + (2 * b(i))) + (3 * c(i))))")
	g.line("  do j = 0,9")
	g.line("    s = (s + (u(i,j) + (2 * v(i,j))))")
	g.line("  enddo")
	g.line("enddo")
	g.line("do i = 1,8")
	g.line("  do j = 1,8")
	g.line("    s = (s + w(i,j))")
	g.line("  enddo")
	g.line("enddo")
	g.line("s = (s * (my$p + 1))")
	g.line("globalsum s")
	g.line("r(1) = s")
	g.line("END")
	if phase {
		g.line("SUBROUTINE ph1(a,b,c,u,v,w)")
		g.lu = false
		g.decls()
		g.line("my$p = myproc()")
		g.scalars()
		for i := 1 + g.r.Intn(3); i > 0; i-- {
			g.scene()
		}
		g.line("END")
	}
	g.b.WriteString(genHelpers)
	return g.b.String(), g.rebcasts
}

// genHelpers are the callees the scenes draw from: wr1/wr2 write their
// formal, rd1/rd2 read the first and write the second, deep writes
// through one more call, setk writes its scalar formal, cm1 communicates, deepc communicates one call
// down; upd is a column-confined trailing update, updbad reads the next
// pivot column.
const genHelpers = `
      SUBROUTINE wr1(y)
      REAL y(0:15)
      y(2) = (y(2) + 1.0)
      END
      SUBROUTINE wr2(y)
      REAL y(0:15,0:9)
      y(2,3) = (y(2,3) + 1.0)
      END
      SUBROUTINE rd1(y,z)
      REAL y(0:15), z(0:15)
      z(3) = (z(3) + (0.5 * y(2)))
      END
      SUBROUTINE rd2(y,z)
      REAL y(0:15,0:9), z(0:15)
      z(4) = (z(4) + (0.5 * y(2,3)))
      END
      SUBROUTINE deep(y)
      REAL y(0:15)
      call wr1(y)
      END
      SUBROUTINE setk(z)
      z = (MOD(z,3) + 1)
      END
      SUBROUTINE cm1(y)
      REAL y(0:15)
      z = y(1)
      globalsum z
      y(1) = (z * 0.25)
      END
      SUBROUTINE deepc(y)
      REAL y(0:15)
      call cm1(y)
      END
      SUBROUTINE upd(w,n,k,l)
      REAL w(8,8)
      do i = (k + 1),n
        w(i,l) = (w(i,l) - ((0.01 * w(i,k)) * w(k,l)))
      enddo
      END
      SUBROUTINE updbad(w,n,k,l)
      REAL w(8,8)
      do i = (k + 1),n
        w(i,l) = (w(i,l) - ((0.01 * w(i,(k + 1))) * w(k,l)))
      enddo
      END
`

type gen struct {
	r        *rand.Rand
	p        int
	b        strings.Builder
	ind      int
	rebcasts int  // re-broadcast scenes emitted: each is one candidate of overlap-redundant
	lu       bool // the unit has its elimination loop: a second would make l live outside the first
}

func (g *gen) line(format string, args ...interface{}) {
	g.b.WriteString("      ")
	g.b.WriteString(strings.Repeat("  ", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) pick(options ...string) string { return options[g.r.Intn(len(options))] }

func (g *gen) decls() {
	g.line("REAL a(0:15), b(0:15), c(0:15)")
	g.line("REAL u(0:15,0:9), v(0:15,0:9)")
	g.line("REAL w(8,8)")
}

func (g *gen) scalars() {
	g.line("k = 2")
	g.line("m = 2")
	g.line("n = 8")
	g.line("q = 1")
	g.line("s = 0")
}

// scene emits one scene, sometimes inside a two-trip time loop or an
// if every processor takes (the transforms then work on that nested
// list, and a site at its head has no predecessor).
func (g *gen) scene() {
	wrap := g.r.Intn(6)
	switch wrap {
	case 0:
		g.line("do t = 1,2")
		g.ind++
	case 1:
		g.line("if ((my$p .GE. 0)) then")
		g.ind++
	}
	switch g.r.Intn(8) {
	case 0, 1, 2:
		g.halo()
	case 3, 4:
		g.bcast()
	case 5:
		g.rebcast()
	default:
		if g.lu {
			g.bcast()
			break
		}
		g.lu = true
		g.lookahead()
	}
	switch wrap {
	case 0:
		g.ind--
		g.line("enddo")
	case 1:
		g.ind--
		g.line("endif")
	}
}

// ---------------------------------------------------------------------------
// Stencil exchange in front of a compute loop

// halo emits one or two send/recv pairs and the loop that reads the
// received cells. The loop either covers a block of the processor's own
// (lo and hi in my$p, the generated form) or the same constant range
// everywhere.
func (g *gen) halo() {
	twoD := g.r.Intn(3) == 0
	src, dst := "a", "b"
	if g.r.Intn(2) == 0 {
		src, dst = "b", "c"
	}
	if twoD {
		src, dst = "u", "v"
	}
	lo, hi := "((my$p * 3) + 1)", "((my$p + 1) * 3)"
	if g.r.Intn(3) == 0 {
		lo, hi = "2", "9"
	}
	tail := ""
	if twoD {
		tail = g.pick(",1:8", ",1:8", ",1:8", ",1:8", ",1:8", ",3:3") // the last: two thin dimensions
	}
	// the rows (or elements) from:to of the exchanged array
	cell := func(from, to string) string {
		sec := from + ":" + to
		if from == to && g.r.Intn(4) == 0 {
			sec = fmt.Sprintf("%s:MIN(%s,15)", from, from)
		}
		return fmt.Sprintf("%s(%s%s)", src, sec, tail)
	}
	type xfer struct{ guard, stmt string }
	var sends, recvs []xfer
	above := func() { // boundary row to the processor below, ghost row from the one above
		ghost := "(" + hi + " + 1)"
		switch g.r.Intn(8) {
		case 0: // fat section
			sends = append(sends, xfer{"(my$p .GT. 0)", fmt.Sprintf("send %s to (my$p - 1)", cell(lo, "("+lo+" + 1)"))})
			recvs = append(recvs, xfer{fmt.Sprintf("(my$p .LT. %d)", g.p-1), fmt.Sprintf("recv %s from (my$p + 1)", cell(ghost, "("+hi+" + 2)"))})
			return
		case 1: // lands inside the loop's range
			ghost = hi
		}
		if g.r.Intn(4) == 0 { // a ring, nobody guarded
			sends = append(sends, xfer{"", fmt.Sprintf("send %s to MOD((my$p + %d),%d)", cell(lo, lo), g.p-1, g.p)})
			recvs = append(recvs, xfer{"", fmt.Sprintf("recv %s from MOD((my$p + 1),%d)", cell(ghost, ghost), g.p)})
			return
		}
		sends = append(sends, xfer{"(my$p .GT. 0)", fmt.Sprintf("send %s to (my$p - 1)", cell(lo, lo))})
		recvs = append(recvs, xfer{fmt.Sprintf("(my$p .LT. %d)", g.p-1), fmt.Sprintf("recv %s from (my$p + 1)", cell(ghost, ghost))})
	}
	below := func() {
		ghost := "(" + lo + " - 1)"
		sends = append(sends, xfer{fmt.Sprintf("(my$p .LT. %d)", g.p-1), fmt.Sprintf("send %s to (my$p + 1)", cell(hi, hi))})
		recvs = append(recvs, xfer{"(my$p .GT. 0)", fmt.Sprintf("recv %s from (my$p - 1)", cell(ghost, ghost))})
	}
	switch g.r.Intn(4) {
	case 0:
		below()
	case 1:
		above()
		below()
	default:
		above()
	}
	emit := func(x xfer) {
		if x.guard == "" {
			g.line("%s", x.stmt)
			return
		}
		g.line("if (%s) then", x.guard)
		g.line("  %s", x.stmt)
		g.line("endif")
	}
	if g.r.Intn(2) == 0 {
		for i := range sends {
			emit(sends[i])
			emit(recvs[i])
		}
	} else {
		for _, x := range sends {
			emit(x)
		}
		for _, x := range recvs {
			emit(x)
		}
	}
	if g.r.Intn(12) == 0 {
		g.line("q = (q + 1)") // the run no longer ends at the loop
	}
	g.line("do i = %s,%s%s", lo, hi, g.pick("", "", "", "", "", "", ",1", ",2"))
	g.ind++
	if twoD {
		g.line("do j = 1,8")
		g.ind++
	}
	at := func(arr string, off int) string {
		i := "i"
		if off > 0 {
			i = fmt.Sprintf("(i + %d)", off)
		} else if off < 0 {
			i = fmt.Sprintf("(i - %d)", -off)
		}
		if twoD {
			return fmt.Sprintf("%s(%s,j)", arr, i)
		}
		return fmt.Sprintf("%s(%s)", arr, i)
	}
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		switch g.r.Intn(14) {
		case 0:
			g.line("%s = (%s + %s)", at(dst, 0), at(dst, -1), at(src, 1)) // recurrence
		case 1:
			g.line("s = (s + %s)", at(src, 1)) // scalar accumulation
		case 2:
			g.line("call wr1(c)")
		case 3:
			g.line("if ((i .GT. 2)) then")
			g.line("  %s = %s", at(dst, 0), at(src, 1))
			g.line("endif")
		case 4:
			if twoD {
				g.line("%s = %s((13 - i),j)", at(dst, 0), src)
			} else {
				g.line("%s = %s((13 - i))", at(dst, 0), src)
			}
		case 5:
			g.line("%s = (%s + %s)", at(src, 0), at(src, 0), at(src, 1)) // writes the exchanged array
		case 6:
			g.line("%s = (%s + (0.5 * %s))", at(dst, 0), at(dst, 0), at(src, g.r.Intn(2)+1))
		default:
			g.line("%s = (0.5 * (%s + %s))", at(dst, 0), at(src, g.r.Intn(3)-1), at(src, g.r.Intn(3)-1))
		}
	}
	if twoD {
		g.ind--
		g.line("enddo")
	}
	g.ind--
	g.line("enddo")
}

// ---------------------------------------------------------------------------
// Broadcasts

// bcastStmt draws a broadcast of arr: a constant or k-rotated root, a
// section with constant bounds or bounds in m and k.
func (g *gen) bcastStmt(arr string) (root, stmt string) {
	root = g.pick(fmt.Sprint(g.r.Intn(g.p)), fmt.Sprintf("MOD(k,%d)", g.p), fmt.Sprintf("MOD((k + 1),%d)", g.p))
	sec := g.pick("1:8", "m:8", "k:k", "0:15")
	if arr == "u" || arr == "v" {
		sec = g.pick("1:12,k", "0:15,k", "m:8,3", "1:12,1:8")
	}
	return root, fmt.Sprintf("broadcast %s(%s) from %s", arr, sec, root)
}

// filler emits one statement that may stand between a broadcast site
// and what it looks back at; x is the array the site protects.
func (g *gen) filler(x string) {
	other := "c"
	if x == "c" {
		other = "b"
	}
	twoD := x == "u" || x == "v"
	switch g.r.Intn(17) {
	case 0, 1:
		g.line("%s(1) = (%s(1) + 1.5)", other, other)
	case 2, 3:
		g.line("q = (q + 1)")
	case 4:
		if twoD {
			g.line("%s(2,2) = (%s(2,2) * 0.5)", x, x)
		} else {
			g.line("%s(2) = (%s(2) * 0.5)", x, x)
		}
	case 5:
		g.line("k = (MOD(k,3) + 1)")
	case 6:
		g.line("m = (3 - m)")
	case 7:
		g.line("call wr1(%s)", other)
	case 8:
		if twoD {
			g.line("call wr2(%s)", x)
		} else {
			g.line("call wr1(%s)", x)
		}
	case 9:
		if twoD {
			g.line("call rd2(%s,%s)", x, other)
		} else {
			g.line("call rd1(%s,%s)", x, other)
		}
	case 10:
		if twoD {
			g.line("call deep(%s)", other)
		} else {
			g.line("call deep(%s)", g.pick(x, other))
		}
	case 11:
		g.line("call %s(%s)", g.pick("cm1", "deepc"), other)
	case 12:
		g.line("globalsum q")
	case 13:
		g.line("if ((my$p .GE. 0)) then")
		g.line("  q = (q + 1)")
		g.line("endif")
	case 14:
		g.line("call setk(%s)", g.pick("k", "k", "m", "q"))
	case 15:
		g.line("do i = 1,3")
		g.line("  %s(i) = (%s(i) + 0.5)", other, other)
		g.line("enddo")
	default:
		g.line("%s(4) = (%s(4) + %s)", other, other, elem(x))
	}
}

func elem(x string) string {
	if x == "u" || x == "v" {
		return x + "(3,3)"
	}
	return x + "(3)"
}

// bcast emits a broadcast behind a random prefix, and a use of it.
func (g *gen) bcast() {
	x := g.pick("a", "b", "c", "u", "v")
	for n := g.r.Intn(5); n > 0; n-- {
		g.filler(x)
	}
	_, stmt := g.bcastStmt(x)
	g.line("%s", stmt)
	if g.r.Intn(2) == 0 {
		g.line("q = (q + %s)", elem(x))
	}
}

// rebcast emits a broadcast, up to two statements, and a second
// broadcast of the same array that the first may or may not cover.
func (g *gen) rebcast() {
	g.rebcasts++
	twoD := g.r.Intn(2) == 0
	x := g.pick("a", "b")
	first, second := g.pick("1:8", "0:15", "m:8"), g.pick("2:3", "m:8", "k:k", "1:8", "0:9")
	if twoD {
		x = "u"
		first, second = g.pick("1:12,k", "0:15,k", "0:15,0:9"), g.pick("k,k", "3:4,k", "1:12,k", "0:15,k", "k,(k + 1)")
	}
	root := g.pick("1", fmt.Sprintf("MOD(k,%d)", g.p))
	g.line("broadcast %s(%s) from %s", x, first, root)
	for n := g.r.Intn(3); n > 0; n-- {
		g.filler(x)
	}
	if g.r.Intn(8) == 0 {
		root = "0"
	}
	g.line("broadcast %s(%s) from %s", x, second, root)
	g.line("q = (q + %s)", elem(x))
}

// ---------------------------------------------------------------------------
// Rotating-root elimination loop

// lookahead emits the LU shape on w with update variable l (used
// nowhere else, so the peel's liveness proof can succeed): the pivot
// column broadcast from its cyclic owner, optional steps, and the
// trailing update over owned columns — with the congruence, the update
// loop's bounds and step, the update body and what follows drawn so
// that every proof of the transform fails in some seed.
func (g *gen) lookahead() {
	p := g.p
	root := fmt.Sprintf("MOD((k - 1),%d)", p)
	switch g.r.Intn(10) {
	case 0:
		root = fmt.Sprintf("MOD(k,%d)", p) // not the owner of the peeled column
	case 1:
		root = fmt.Sprintf("MIN(k,%d)", p-1) // not a cyclic owner expression
	}
	g.line("do k = 1,(n - 1)")
	g.ind++
	g.line("broadcast w(1:8,k) from %s", root)
	if g.r.Intn(3) == 0 {
		g.line("piv = (0.5 * w(k,k))")
	}
	if g.r.Intn(4) == 0 {
		g.line("broadcast w(k,k) from %s", root)
		g.rebcasts++
	}
	start, step := "(k + 1)", fmt.Sprint(p)
	switch g.r.Intn(12) {
	case 0:
		start = "(k + 2)"
	case 1:
		step = fmt.Sprint(p + 1)
	}
	if g.r.Intn(14) == 0 {
		g.line("do l = (k + 1),n")
	} else {
		g.line("do l = first$((my$p + 1),%s,%d),n,%s", start, p, step)
	}
	g.ind++
	switch g.r.Intn(10) {
	case 0, 1, 2:
		g.line("call upd(w,n,k,l)")
	case 3:
		g.line("call updbad(w,n,k,l)")
	case 4:
		g.line("do i = (k + 1),n")
		g.line("  w(i,l) = (w(i,l) - (0.01 * w(i,(l - 1))))")
		g.line("enddo")
	case 5:
		g.line("if ((l .GT. 2)) then")
		g.line("  call upd(w,n,k,l)")
		g.line("endif")
	default:
		g.line("do i = (k + 1),n")
		g.line("  w(i,l) = (w(i,l) - ((0.01 * w(i,k)) * w(k,l)))")
		g.line("enddo")
	}
	g.ind--
	g.line("enddo")
	if g.r.Intn(12) == 0 {
		g.line("q = (q + 1)") // the body no longer ends in the update loop
	}
	g.ind--
	g.line("enddo")
	if g.r.Intn(12) == 0 {
		g.line("q = (q + l)") // the update variable is live after the loop
	}
}

// ---------------------------------------------------------------------------
// A chain of pipelined loops

// chain emits two to five pipelined loops over one array as code
// generation spells them (chain.go): the shift to my$p-1 and its recv
// from my$p+1, the pipeline recv from my$p-1, the loop over the
// processor's block, the pipeline send to my$p+1. Blocks are 3 cells
// wide, or 2; shifts of 1 and 2 make some pairs of loops wider than a
// block. A loop that also reads one cell further, a scalar it
// accumulates, another array it writes, or a statement between two loops
// varies what the rest of the pass proves. It draws from r alone.
func (g *gen) chain(r *rand.Rand) {
	x := []string{"a", "b", "c"}[r.Intn(3)]
	y := map[string]string{"a": "b", "b": "c", "c": "a"}[x]
	width := 3
	if r.Intn(4) == 0 {
		width = 2
	}
	last := g.p - 1
	f := fmt.Sprintf("((my$p * %d) + 1)", width)
	e := fmt.Sprintf("((my$p + 1) * %d)", width)
	guarded := func(guard, stmt string) {
		g.line("if (%s) then", guard)
		g.line("  %s", stmt)
		g.line("endif")
	}
	for l, n := 0, 2+r.Intn(4); l < n; l++ {
		s := 1 + r.Intn(2)
		if width == 2 {
			s = 1
		}
		if l > 0 && r.Intn(10) == 0 {
			g.line("q = (q + 1)") // ends the chain
		}
		guarded("(my$p .GT. 0)", fmt.Sprintf("send %s(%s:(%s + %d)) to (my$p - 1)", x, f, f, s-1))
		guarded(fmt.Sprintf("(my$p .LT. %d)", last), fmt.Sprintf("recv %s((%s + 1):(%s + %d)) from (my$p + 1)", x, e, e, s))
		guarded("(my$p .GT. 0)", fmt.Sprintf("recv %s((%s - %d):(%s - 1)) from (my$p - 1)", x, f, s, f))
		g.line("do i = MAX(%d,%s),MIN(%d,%s)", s+1, f, width*g.p-s, e)
		g.line("  %s(i) = (((0.5 * %s((i - %d))) + (0.25 * %s((i + %d)))) + %d)", x, x, s, x, s, l+1)
		switch r.Intn(8) {
		case 0:
			g.line("  %s(i) = (%s(i) + %s((i + %d)))", x, x, x, s+1) // reaches past the cells received
		case 1:
			g.line("  s = (s + %s(i))", x)
		case 2:
			g.line("  %s(i) = (%s(i) + %s((i - 1)))", y, y, x)
		}
		g.line("enddo")
		guarded(fmt.Sprintf("(my$p .LT. %d)", last), fmt.Sprintf("send %s((%s - %d):%s) to (my$p + 1)", x, e, s-1, e))
	}
}
