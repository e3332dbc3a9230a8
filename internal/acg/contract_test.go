package acg_test

import (
	"slices"
	"strings"
	"testing"

	"fortd"
)

// TestStorageAssociationContract is the contract's table: each program
// either fails to compile with an error that names the unit and line
// and contains err, or compiles, and then leaves want in the main
// program's array a, at P = 1 and P = 4, in the compiled run and the
// sequential reference alike.
func TestStorageAssociationContract(t *testing.T) {
	const head = `
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
`
	cases := []struct {
		name, src, err string
		want           []float64
	}{
		{name: "reordered members", src: head + `
      REAL x(4), y(4)
      COMMON /b/ x, y
      call f
      END
      SUBROUTINE f
      REAL x(4), y(4)
      COMMON /b/ y, x
      END
`, err: "f line 11: COMMON /b/ declares REAL y(4), REAL x(4) where MAIN line 6 declares REAL x(4), REAL y(4)"},
		{name: "mismatched extents", src: head + `
      REAL x(16)
      COMMON /b/ x
      call f
      END
      SUBROUTINE f
      REAL x(8)
      COMMON /b/ x
      END
`, err: "f line 11: COMMON /b/ declares REAL x(8) where MAIN line 6 declares REAL x(16)"},
		{name: "fewer members", src: head + `
      REAL x(4), y(4)
      COMMON /b/ x, y
      call f
      END
      SUBROUTINE f
      REAL x(4)
      COMMON /b/ x
      END
`, err: "f line 11: COMMON /b/ declares REAL x(4) where MAIN line 6 declares REAL x(4), REAL y(4)"},
		{name: "member of two blocks", src: head + `
      REAL x(4)
      COMMON /b/ x
      call f
      END
      SUBROUTINE f
      REAL x(4)
      COMMON /c/ x
      END
`, err: "f line 11: x is a member of COMMON /c/ and of /b/"},
		{name: "formal array shares a COMMON array's name", src: head + `
      REAL x(4), y(4)
      COMMON /b/ x
      call f(y)
      END
      SUBROUTINE f(x)
      REAL x(4)
      END
`, err: "f line 10: the array x is named like a member of COMMON /b/"},
		{name: "formal in COMMON", src: head + `
      REAL y(4)
      call f(y)
      END
      SUBROUTINE f(y)
      REAL y(4)
      COMMON /b/ y
      END
`, err: "f line 10: the formal y is in COMMON /b/"},
		{name: "COMMON array with adjustable bounds", src: head + `
      REAL y(4)
      call f(4)
      END
      SUBROUTINE f(n)
      REAL y(n)
      COMMON /b/ y
      END
`, err: "f line 10: COMMON /b/ declares y(n): a COMMON array has constant bounds"},
		{name: "element actual to an array formal", src: head + `
      REAL a(8)
      call f(a(5))
      END
      SUBROUTINE f(y)
      REAL y(4)
      END
`, err: "MAIN line 6: call f passes a(5), not a whole array, to the array formal y"},
		{name: "assumed size", src: head + `
      REAL a(8)
      call f(a)
      END
      SUBROUTINE f(y)
      REAL y(1)
      END
`, err: "MAIN line 6: call f passes a(8) to the array formal y(1)"},
		{name: "array to a scalar formal", src: head + `
      REAL a(8)
      call f(a)
      END
      SUBROUTINE f(y)
      y = 1
      END
`, err: "MAIN line 6: call f passes the array a to the scalar formal y"},
		{name: "one actual per formal", src: head + `
      REAL a(8)
      call f(a)
      END
      SUBROUTINE f(y, n)
      REAL y(8)
      END
`, err: "MAIN line 6: call f passes 1 arguments to 2 formals"},
		{name: "element actual to a scalar formal", src: head + `
      REAL a(4)
      DISTRIBUTE a(BLOCK)
      do i = 1, 4
        a(i) = i
      enddo
      call f(a, a(3))
      END
      SUBROUTINE f(a, s)
      REAL a(4)
      do i = 1, 4
        a(i) = a(i) + s
      enddo
      END
`, want: []float64{4, 5, 6, 7}},
		{name: "one array to two formals, one passed on to a CALL", src: head + `
      REAL a(4)
      call f(a, a)
      END
      SUBROUTINE f(x, y)
      REAL x(4), y(4)
      call g(y)
      END
      SUBROUTINE g(z)
      REAL z(4)
      z(1) = 0
      END
`, err: "MAIN line 6: call f passes the array a to the formals x and y, and f may define y"},
		{name: "one array to two formals that are only read", src: head + `
      REAL a(4), b(4)
      DISTRIBUTE a(BLOCK)
      do i = 1, 4
        b(i) = i
      enddo
      call f(b, b, a)
      END
      SUBROUTINE f(x, y, a)
      REAL x(4), y(4), a(4)
      do i = 1, 4
        a(i) = x(i) + y(5 - i)
      enddo
      END
`, want: []float64{5, 5, 5, 5}},
		{name: "a block only two siblings declare keeps its values between calls", src: head + `
      REAL a(4)
      call put
      call get(a)
      END
      SUBROUTINE put
      REAL y(4)
      COMMON /s/ k, y
      k = 2
      do i = 1, 4
        y(i) = 10 * i
      enddo
      END
      SUBROUTINE get(a)
      REAL a(4), y(4)
      COMMON /s/ k, y
      do i = 1, 4
        a(i) = y(i) + k
      enddo
      END
`, want: []float64{12, 22, 32, 42}},
	}
	for _, c := range cases {
		for _, p := range []int{1, 4} {
			opts := fortd.DefaultOptions()
			opts.P = p
			prog, err := fortd.Compile(c.src, opts)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("%s: compile error %v, want one that contains %q", c.name, err, c.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			r := fortd.NewRunner()
			for run, exec := range map[string]func(*fortd.Program) (*fortd.Result, error){"compiled": r.Run, "reference": r.RunReference} {
				res, err := exec(prog)
				if err != nil {
					t.Fatalf("%s P=%d %s: %v", c.name, p, run, err)
				}
				if got := res.Arrays["a"]; !slices.Equal(got, c.want) {
					t.Errorf("%s P=%d %s: a = %v, want %v\n%s", c.name, p, run, got, c.want, prog.Listing())
				}
			}
		}
	}
}
