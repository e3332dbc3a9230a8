package sideeffect

import (
	"slices"
	"testing"
	"testing/quick"

	"fortd/internal/acg"
	"fortd/internal/parser"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return Compute(g, Own)
}

func TestLocalModRef(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      REAL X(10), Y(10)
      do i = 1,10
        X(i) = Y(i)
      enddo
      END
`)
	s := a.Summaries["P"]
	if !s.Mod.Has("X") {
		t.Error("X not in GMOD")
	}
	if !s.Ref.Has("Y") {
		t.Error("Y not in GREF")
	}
	if s.Mod.Has("Y") {
		t.Error("Y wrongly in GMOD")
	}
}

// TestInterproceduralTranslation: modifications through a formal are
// visible to the caller under the actual's name.
func TestInterproceduralTranslation(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      REAL A(10), B(10)
      call S(A,B)
      END
      SUBROUTINE S(X,Y)
      REAL X(10), Y(10)
      do i = 1,10
        X(i) = Y(i)
      enddo
      END
`)
	p := a.Summaries["P"]
	if !p.Mod.Has("A") {
		t.Errorf("A not in GMOD(P): %v", p.Mod.Members())
	}
	if !p.Ref.Has("B") {
		t.Errorf("B not in GREF(P): %v", p.Ref.Members())
	}
	if p.Mod.Has("B") {
		t.Error("B wrongly in GMOD(P)")
	}
}

func TestTransitiveThroughChain(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      REAL A(10)
      call S1(A)
      END
      SUBROUTINE S1(X)
      REAL X(10)
      call S2(X)
      END
      SUBROUTINE S2(Z)
      REAL Z(10)
      Z(1) = 1.0
      END
`)
	if !a.Summaries["S1"].Mod.Has("X") {
		t.Error("X not in GMOD(S1)")
	}
	if !a.Summaries["P"].Mod.Has("A") {
		t.Error("A not in GMOD(P)")
	}
}

func TestCommonBlockEffects(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      COMMON /blk/ G(10)
      call S
      END
      SUBROUTINE S
      COMMON /blk/ G(10)
      G(1) = 2.0
      END
`)
	if !a.Summaries["P"].Mod.Has("G") {
		t.Errorf("common G not in GMOD(P): %v", a.Summaries["P"].Mod.Members())
	}
}

// TestAppearFigure4: Appear(F1) contains the formal Z, which is what the
// cloning algorithm filters reaching decompositions against.
func TestAppearFigure4(t *testing.T) {
	a := analyze(t, `
      PROGRAM P1
      REAL X(100,100),Y(100,100)
      do i = 1,100
        call F1(X,i)
        call F1(Y,i)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
      call F2(Z,i)
      END
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,100
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	ap := a.AppearSet("F1")
	if !ap.Has("Z") {
		t.Errorf("Appear(F1) = %v, missing Z", ap.Members())
	}
	if !ap.Has("i") {
		t.Errorf("Appear(F1) = %v, missing i (passed through to F2's loop body)", ap.Members())
	}
	// locals of F2 do not leak
	if ap.Has("k") {
		t.Errorf("Appear(F1) leaks F2-local k: %v", ap.Members())
	}
}

func TestUnknownProcedureAppear(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      x = 1
      END
`)
	if got := a.AppearSet("nosuch"); len(got) != 0 {
		t.Errorf("unknown proc Appear = %v", got.Members())
	}
}

// TestCommonThroughIntermediate: an effect on a COMMON variable reaches
// a caller that declares the block through a procedure that does not.
func TestCommonThroughIntermediate(t *testing.T) {
	a := analyze(t, `
      PROGRAM P
      COMMON /blk/ G(10)
      call MID
      END
      SUBROUTINE MID
      call S
      END
      SUBROUTINE S
      COMMON /blk/ G(10)
      t = 1.0
      G(1) = 2.0
      END
`)
	if !a.Summaries["P"].Mod.Has("G") {
		t.Errorf("common G not in GMOD(P): %v", a.Summaries["P"].Mod.Members())
	}
	if a.Summaries["P"].Mod.Has("t") {
		t.Errorf("S-local t leaks into GMOD(P): %v", a.Summaries["P"].Mod.Members())
	}
}

// TestGeneratedDialect: what each communication statement of the SPMD
// dialect modifies and references, the Comm bit through a call, an
// undefined callee, and Add on a single statement.
func TestGeneratedDialect(t *testing.T) {
	prog, err := parser.Parse(`
      PROGRAM P
      REAL a(8), b(8), c(8), d(8), e(8)
      my$p = myproc()
      send a(lo:4) to (my$p + 1)
      recv b(5:hi) from src
      broadcast c(1:8) from MOD(k,4)
      postrecv d(1) from 0 tag 1
      waitrecv d tag 1
      postbcast e(m:8) from 0 tag 2
      waitbcast e tag 2
      globalsum s
      call quiet(a)
      END
      SUBROUTINE quiet(x)
      REAL x(8)
      x(1) = 0
      END
      SUBROUTINE talks(x)
      REAL x(8)
      call relay(x)
      END
      SUBROUTINE relay(x)
      REAL x(8)
      allgather x(1:8)
      END
      SUBROUTINE lost(x)
      REAL x(8)
      call nosuch(x)
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	a := Compute(g, Own)
	p := a.Summaries["P"]
	for _, name := range []string{"a", "b", "c", "d", "e", "s"} {
		// a is sent, and written by quiet; e is only ever posted and waited for
		if !p.Mod.Has(name) {
			t.Errorf("%s not in GMOD(P): %v", name, p.Mod.Members())
		}
	}
	for _, name := range []string{"a", "c", "d", "e", "s", "lo", "hi", "src", "k", "m", "my$p"} {
		if !p.Ref.Has(name) {
			t.Errorf("%s not in GREF(P): %v", name, p.Ref.Members())
		}
	}
	if p.Ref.Has("b") {
		t.Errorf("b is only received into, yet in GREF(P): %v", p.Ref.Members())
	}
	for name, want := range map[string]bool{"P": true, "quiet": false, "talks": true, "relay": true, "lost": true} {
		if a.Summaries[name].Comm != want {
			t.Errorf("Comm(%s) = %v, want %v", name, !want, want)
		}
	}
	call := prog.Main().Body[len(prog.Main().Body)-1]
	one := NewSummary()
	a.Add(one, call)
	if !one.Mod.Has("a") || len(one.Mod) != 1 || one.Comm {
		t.Errorf("call quiet(a): Mod %v Comm %v, want [a] false", one.Mod.Members(), one.Comm)
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet("x", "y")
	if !a.Has("x") || a.Has("z") {
		t.Error("membership")
	}
	c := a.Clone()
	c.Union(NewSet("y", "z"))
	if m := c.Members(); len(m) != 3 || !slices.Contains(m, "z") {
		t.Errorf("union = %v", m)
	}
	if len(a) != 2 {
		t.Errorf("the union wrote the set it was cloned from: %v", a.Members())
	}
}

func TestSetUnionProperty(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := NewSet(xs...), NewSet(ys...)
		u := a.Clone()
		u.Union(b)
		for m := range a {
			if !u.Has(m) {
				return false
			}
		}
		for m := range b {
			if !u.Has(m) {
				return false
			}
		}
		for m := range u {
			if !a.Has(m) && !b.Has(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
