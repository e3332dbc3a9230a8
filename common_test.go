package fortd

import (
	"fmt"
	"math"
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
// block stopped it.
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
