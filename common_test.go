package fortd

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fortd/internal/explain"
)

// Three programs whose callee writes, through a COMMON block, what a
// broadcast after the call reads. (String constants, not testdata/*.f:
// the compile digest globs that directory.)

// commonHoistSrc: bump updates a through the block; the broadcast of
// a(3) that follows the call must not be posted above it.
const commonHoistSrc = `
      PROGRAM P
      REAL a(4), c(4)
      COMMON /blk/ a
      DECOMPOSITION d(4)
      ALIGN a(i) WITH d(i)
      ALIGN c(i) WITH d(i)
      DISTRIBUTE d(BLOCK)
      do i = 1,4
        a(i) = i
      enddo
      call bump()
      do i = 1,4
        c(i) = a(3)
      enddo
      END
` + commonBumpSrc

// commonRedundantSrc: a(3) is broadcast before the call and again after
// it; the second broadcast carries the updated value and must stay.
const commonRedundantSrc = `
      PROGRAM P
      REAL a(4), c(4)
      COMMON /blk/ a
      DECOMPOSITION d(4)
      ALIGN a(i) WITH d(i)
      ALIGN c(i) WITH d(i)
      DISTRIBUTE d(BLOCK)
      do i = 1,4
        a(i) = i
      enddo
      x = a(3)
      call bump()
      y = a(3)
      do i = 1,4
        c(i) = x + y
      enddo
      END
` + commonBumpSrc

const commonBumpSrc = `
      SUBROUTINE bump()
      REAL a(4)
      COMMON /blk/ a
      DECOMPOSITION d(4)
      ALIGN a(i) WITH d(i)
      DISTRIBUTE d(BLOCK)
      do i = 1,4
        a(i) = a(i) + 100
      enddo
      END
`

// commonScalarSrc: the callee writes the scalar k of the block, and the
// broadcast's section a(k:4,1) reads it.
const commonScalarSrc = `
      PROGRAM P
      REAL a(4,4), c(4,4)
      COMMON /blk/ k
      DECOMPOSITION d(4,4)
      ALIGN a(i,j) WITH d(i,j)
      ALIGN c(i,j) WITH d(i,j)
      DISTRIBUTE d(:,BLOCK)
      do j = 1,4
        do i = 1,4
          a(i,j) = i + j
          c(i,j) = 0
        enddo
      enddo
      k = 2
      call setk()
      do j = 1,4
        do i = k,4
          c(i,j) = a(i,1)
        enddo
      enddo
      END
      SUBROUTINE setk()
      COMMON /blk/ k
      k = 3
      END
`

// TestCommonWritesPinTheSchedule: a call that may write a COMMON
// variable is a statement no broadcast reading that variable moves
// across, and no earlier broadcast covers a later one across it. The
// compiled programs equal the sequential reference with the schedule on
// and off, and wherever the compiler placed the broadcast (run-time
// resolution places none) the blocked site says which variable of which
// block stopped it. In the scalar case setk makes k = 3 for the main
// program too, so the loop from k leaves row 2 of c at 0.
func TestCommonWritesPinTheSchedule(t *testing.T) {
	cases := []struct{ name, src, missed string }{
		{"hoist", commonHoistSrc, "call bump may write a (COMMON /blk/)"},
		{"redundant", commonRedundantSrc, "call bump may write a (COMMON /blk/)"},
		{"scalar", commonScalarSrc, "call setk may write k (COMMON /blk/)"},
	}
	for _, c := range cases {
		for _, st := range digestStrategies {
			for _, p := range []int{1, 3, 4} {
				for _, overlap := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/p%d/overlap=%v", c.name, st.name, p, overlap)
					ex := NewExplain()
					opts := DefaultOptions().WithOverlap(overlap)
					opts.Strategy, opts.P, opts.Explain = st.s, p, ex
					prog, err := Compile(c.src, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := NewRunner().Run(prog)
					if err != nil {
						t.Fatalf("%s: run: %v", name, err)
					}
					ref, err := NewRunner().RunReference(prog)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					for arr, want := range ref.Arrays {
						for i := range want {
							if got := res.Arrays[arr][i]; !(math.Abs(got-want[i]) <= 1e-9) {
								t.Errorf("%s: %s[%d] = %v, sequential reference %v\n%s", name, arr, i, got, want[i], prog.Listing())
								break
							}
						}
					}
					if c.name == "scalar" {
						if row2 := ref.Arrays["c"][4:8]; slices.ContainsFunc(row2, func(v float64) bool { return v != 0 }) {
							t.Errorf("%s: c(2,:) = %v, want 0 (k = 3 after call setk)", name, row2)
						}
					}
					if !overlap || p == 1 || st.s == RuntimeResolution {
						continue
					}
					found := false
					for _, r := range ex.Remarks() {
						if r.Pass == "sched" && r.Kind == explain.Missed && strings.Contains(r.Msg, c.missed) {
							found = true
						}
					}
					if !found {
						t.Errorf("%s: no Missed sched remark says %q:\n%s", name, c.missed, prog.Listing())
					}
				}
			}
		}
	}
}

// commonStaleSrc: mid does not declare /blk/, so leaf's delayed shift
// of x can only be sent by main, before call mid; fill, which mid calls
// first, would leave it stale.
const commonStaleSrc = `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL x(16), b(16)
      COMMON /blk/ x
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE b(BLOCK)
      call mid(b)
      END
      SUBROUTINE mid(b)
      REAL b(16)
      call fill
      do i = 1, 15
        call leaf(b, i)
      enddo
      END
      SUBROUTINE fill
      REAL x(16)
      COMMON /blk/ x
      do i = 1, 16
        x(i) = x(i) + 1
      enddo
      END
      SUBROUTINE leaf(b, i)
      REAL b(16), x(16)
      COMMON /blk/ x
      b(i) = x(i+1)
      END
`

// commonLoopSrc: a broadcast of row 1 of x, whose root is fixed, from
// leaf through mid, whose loop around the call also calls fill.
const commonLoopSrc = `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL x(4,8), b(8)
      COMMON /blk/ x
      DISTRIBUTE x(BLOCK,:)
      DISTRIBUTE b(BLOCK)
      call mid(b)
      END
      SUBROUTINE mid(b)
      REAL b(8)
      do j = 1, 8
        call fill(j)
        call leaf(b, j)
      enddo
      END
      SUBROUTINE fill(j)
      REAL x(4,8)
      COMMON /blk/ x
      x(1,j) = x(1,j) + 10
      END
      SUBROUTINE leaf(b, j)
      REAL b(8), x(4,8)
      COMMON /blk/ x
      b(j) = x(1,j)
      END
`

// TestCommonPassThroughNeverGoesStale: a callee's message on a COMMON
// array travels up through a procedure that does not declare the block
// only while nothing that procedure runs may write what it carries;
// otherwise the interprocedural strategy rejects the program at the
// call, and the strategies that keep the message in the callee compile
// it to the sequential reference's answer. In the second lane fill
// writes x(1) only, which leaf never reads: every strategy compiles it.
// In the third, leaf's broadcast of row 1 has a constant root and stays
// at its call inside mid's loop, which also calls fill: it must not
// leave that loop either. In the fourth, mid calls fill, which reads
// nothing of x, in a loop that counts down, before the loop that calls
// leaf: the broadcast must not leave mid past it.
func TestCommonPassThroughNeverGoesStale(t *testing.T) {
	disjoint := strings.Replace(commonStaleSrc, "      do i = 1, 16\n        x(i) = x(i) + 1\n      enddo\n", "      x(1) = x(1) + 1\n", 1)
	down := strings.NewReplacer("      do j = 1, 8\n        call fill(j)\n", "      do m = 8, 1, -1\n        call fill(m)\n      enddo\n      do j = 1, 8\n",
		"x(1,j) = x(1,j) + 10", "x(1,j) = 10.0 * j").Replace(commonLoopSrc)
	if disjoint == commonStaleSrc || down == commonLoopSrc {
		t.Fatal("edit did not apply")
	}
	for _, lane := range []struct{ src, want string }{
		{commonStaleSrc, "mid line 14: call leaf: the message for x cannot move to the callers of mid (call fill at line 12 may write x)"},
		{disjoint, ""},
		{commonLoopSrc, "the message for x cannot move to the callers of mid (call fill at line 13 may write x)"},
		{down, "mid line 16: call leaf: the message for x cannot move to the callers of mid (call fill at line 13 may write x)"},
	} {
		for _, st := range digestStrategies {
			for _, p := range []int{1, 4} {
				opts := DefaultOptions()
				opts.Strategy, opts.P = st.s, p
				prog, err := Compile(lane.src, opts)
				if st.s == Interprocedural && lane.want != "" {
					if err == nil || !strings.Contains(err.Error(), lane.want) {
						t.Errorf("%s P=%d: compile error %v, want one that contains %q", st.name, p, err, lane.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s P=%d: %v", st.name, p, err)
				}
				r := NewRunner(WithInit(RampInit(lane.src)))
				res, err := r.Run(prog)
				if err != nil {
					t.Fatalf("%s P=%d: %v", st.name, p, err)
				}
				ref, err := r.RunReference(prog)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(res.Arrays["b"], ref.Arrays["b"]); !(d <= 1e-9) {
					t.Errorf("%s P=%d: b = %v, reference %v\n%s", st.name, p, res.Arrays["b"], ref.Arrays["b"], prog.Listing())
				}
			}
		}
	}
}
