// Package progen generates random Fortran D programs for differential
// tests: fills, shifted stencils, recurrences, reductions, subroutine
// calls, mid-program redistributions and data-dependent branches over
// two distributed arrays, and on request scalar temporaries and callees
// that redistribute their formal, in shapes nobody hand-picked. It is
// imported by tests only.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Gen draws one random program. Rng is consumed in a fixed order, so a
// seed reproduces its programs.
type Gen struct {
	Rng *rand.Rand
	N   int // array size
	P   int // processor count (the n$proc PARAMETER)
	// Temps adds fragments with scalar temporaries, and calls to a
	// subroutine that redistributes its formal from a loop a scalar
	// runs 0 or 2 times and under an IF on that scalar. Off, a seed
	// draws the programs it always did (the compile digest records
	// them).
	Temps bool

	subs   []string
	nextID int
}

func (g *Gen) pick(ss ...string) string { return ss[g.Rng.Intn(len(ss))] }

func (g *Gen) shift() int { return g.Rng.Intn(5) - 2 } // -2..2

// fill writes a deterministic pattern.
func (g *Gen) fill(arr string) string {
	c := g.Rng.Intn(5) + 1
	return fmt.Sprintf(`      do i = 1, %d
        %s(i) = i * %d + %d
      enddo
`, g.N, arr, c, g.Rng.Intn(9))
}

// stencil reads src with a shift, writes dst.
func (g *Gen) stencil(dst, src string) string {
	s1 := g.shift()
	s2 := g.shift()
	return fmt.Sprintf(`      do i = 3, %d
        %s(i) = 0.5 * %s(i%+d) + 0.25 * %s(i%+d)
      enddo
`, g.N-2, dst, src, s1, src, s2)
}

// recurrence creates a carried true dependence.
func (g *Gen) recurrence(arr string) string {
	return fmt.Sprintf(`      do i = 3, %d
        %s(i) = %s(i-1) + 1.0
      enddo
`, g.N-2, arr, arr)
}

// reduce accumulates into a scalar (replicated computation).
func (g *Gen) reduce(arr string) string {
	return fmt.Sprintf(`      do i = 1, %d
        s = s + %s(i)
      enddo
      %s(1) = s
`, g.N, arr, arr)
}

// subCall wraps a stencil in a subroutine.
func (g *Gen) subCall(dst, src string) string {
	g.nextID++
	name := fmt.Sprintf("W%d", g.nextID)
	s1 := g.shift()
	g.subs = append(g.subs, fmt.Sprintf(`      SUBROUTINE %s(U, V)
      REAL U(%d), V(%d)
      do i = 3, %d
        U(i) = V(i%+d) * 1.5
      enddo
      END
`, name, g.N, g.N, g.N-2, s1))
	return fmt.Sprintf("      call %s(%s, %s)\n", name, dst, src)
}

// redistribute changes A's distribution mid-program.
func (g *Gen) redistribute(arr, spec string) string {
	return fmt.Sprintf("      DISTRIBUTE %s(%s)\n", arr, spec)
}

// conditional reads distributed data in an IF condition and takes
// per-element branches.
func (g *Gen) conditional(dst, src string) string {
	thresh := g.Rng.Intn(50)
	return fmt.Sprintf(`      do i = 3, %d
        if (%s(i) .GT. %d) then
          %s(i) = %s(i) - 1.0
        else
          %s(i) = %s(i) + 2.0
        endif
      enddo
`, g.N-2, src, thresh, dst, src, dst, src)
}

// temp computes dst through a scalar temporary inside a partitioned
// loop; after is what follows the loop ("": nothing, else a statement
// that reads the temporary, which keeps it replicated).
func (g *Gen) temp(dst, src, after string) string {
	return fmt.Sprintf(`      do i = 3, %d
        t = %s(i) * 2.0
        %s(i) = t + 1.0
      enddo
`, g.N-2, src, dst) + after
}

// tempCall computes a scalar from src through a chain of two and passes
// it to a subroutine only the owner of the updated element calls.
func (g *Gen) tempCall(dst, src string) string {
	g.nextID++
	g.subs = append(g.subs, fmt.Sprintf(`      SUBROUTINE W%d(U, k, t)
      REAL U(%d)
      U(k) = U(k) + t
      END
`, g.nextID, g.N))
	return fmt.Sprintf(`      do k = 3, %d
        u = %s(k%+d)
        t = u * 0.5
        call W%d(%s, k, t)
      enddo
`, g.N-2, src, g.shift()/2, g.nextID, dst)
}

// redistCall calls a subroutine that redistributes its formal, and
// updates it or overwrites all of it, so the caller remaps around each
// call (§6): maybe once, then from a loop whose trip count m is 0 or 2,
// then only if m .GT. 0.
func (g *Gen) redistCall(arr string) string {
	g.nextID++
	body := fmt.Sprintf(`      do i = 3, %d
        U(i) = U(i%+d) + 1.0
`, g.N-2, g.shift())
	if g.Rng.Intn(2) == 0 {
		body = fmt.Sprintf(`      do i = 1, %d
        U(i) = i * %d
`, g.N, g.Rng.Intn(5)+1)
	}
	g.subs = append(g.subs, fmt.Sprintf(`      SUBROUTINE W%d(U)
      REAL U(%d)
      DISTRIBUTE U(%s)
%s      enddo
      END
`, g.nextID, g.N, g.pick("BLOCK", "CYCLIC"), body))
	call := fmt.Sprintf("call W%d(%s)", g.nextID, arr)
	first := ""
	if g.Rng.Intn(2) == 0 {
		first = "      " + call + "\n"
	}
	return fmt.Sprintf(`      m = %d
%s      do j = 1, m
        %s
      enddo
      if (m .GT. 0) %s
`, 2*g.Rng.Intn(2), first, call, call)
}

// Generate returns the program's Fortran D source.
func (g *Gen) Generate() string {
	distA := g.pick("BLOCK", "CYCLIC")
	distB := g.pick("BLOCK", "CYCLIC")
	var body strings.Builder
	nf := g.Rng.Intn(3) + 2
	body.WriteString(g.fill("A"))
	body.WriteString(g.fill("B"))
	kinds := 7
	if g.Temps {
		kinds = 11
	}
	for i := 0; i < nf; i++ {
		switch g.Rng.Intn(kinds) {
		case 0:
			body.WriteString(g.stencil("A", "B"))
		case 1:
			body.WriteString(g.stencil("B", "A"))
		case 2:
			body.WriteString(g.recurrence(g.pick("A", "B")))
		case 3:
			body.WriteString(g.reduce(g.pick("A", "B")))
		case 4:
			body.WriteString(g.subCall("A", "B"))
		case 5:
			// mid-program redistribution exercises §6 and the
			// per-statement distribution lookup
			body.WriteString(g.redistribute(g.pick("A", "B"), g.pick("BLOCK", "CYCLIC")))
			body.WriteString(g.stencil("A", "B"))
		case 6:
			body.WriteString(g.conditional("A", "B"))
		case 7:
			body.WriteString(g.temp("A", g.pick("A", "B"), ""))
		case 8:
			body.WriteString(g.tempCall(g.pick("A", "B"), g.pick("A", "B")))
		case 9:
			body.WriteString(g.temp("B", g.pick("A", "B"), "      B(1) = t\n"))
		case 10:
			body.WriteString(g.redistCall(g.pick("A", "B")))
		}
	}
	var src strings.Builder
	fmt.Fprintf(&src, `      PROGRAM RAND
      PARAMETER (n$proc = %d)
      REAL A(%d), B(%d)
      DISTRIBUTE A(%s)
      DISTRIBUTE B(%s)
`, g.P, g.N, g.N, distA, distB)
	src.WriteString(body.String())
	src.WriteString("      END\n")
	for _, s := range g.subs {
		src.WriteString(s)
	}
	return src.String()
}
