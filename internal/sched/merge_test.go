package sched

import (
	"strings"
	"testing"

	"fortd/internal/explain"
)

// TestGuardMerge is the legality table of the guard merge: a run of
// adjacent IFs without an ELSE whose conditions print alike becomes one
// IF, unless an earlier body of the run may write what the condition
// reads or calls a procedure the pass knows nothing of. Each row says
// how many IFs the loop keeps.
func TestGuardMerge(t *testing.T) {
	const callees = `
      SUBROUTINE idamax(a,n,k)
      REAL a(16,16)
      s = 0
      do i = k,n
        s = MAX(s,ABS(a(i,k)))
      enddo
      END
      SUBROUTINE dscal(a,n,k,t)
      REAL a(16,16)
      do i = (k + 1),n
        a(i,k) = (a(i,k) * t)
      enddo
      END
      SUBROUTINE dec(j)
      j = (j - 1)
      END
      SUBROUTINE bump(a)
      REAL a(16,16)
      COMMON /c/ k
      k = (k + 1)
      END
`
	owner := "(MOD((k - 1),4) .EQ. my$p)"
	guard := func(body string) string {
		return "        if (" + owner + ") then\n          " + body + "\n        endif\n"
	}
	for _, row := range []struct {
		name, body string
		keep       int
	}{
		{"dgefa", guard("call idamax(a,n,k)") + guard("t = (1 / a(k,k))") + guard("call dscal(a,n,k,t)"), 1},
		{"communication", `
        if ((my$p .GT. 0)) then
          postrecv a(1,1:16) from (my$p - 1) tag 1
        endif
        if ((my$p .GT. 0)) then
          send a(2,1:16) to (my$p - 1)
        endif
`, 1},
		{"later body writes", guard("t = 1") + guard("k = (k + 1)"), 1},
		{"assignment", guard("k = (k + 1)") + guard("t = 1"), 2},
		{"run ends at a write", guard("t = 1") + guard("k = (k + 1)") + guard("s = 1"), 2},
		{"call writes through a formal", guard("call dec(k)") + guard("t = 1"), 2},
		{"call writes through COMMON", guard("call bump(a)") + guard("t = 1"), 2},
		{"callee without a summary", guard("call ext(a)") + guard("t = 1"), 2},
		{"else", "        if (" + owner + ") then\n          t = 1\n        else\n          t = 2\n        endif\n" + guard("s = 1"), 2},
		{"unequal conditions", guard("t = 1") + "        if ((MOD(k,4) .EQ. my$p)) then\n          s = 1\n        endif\n", 2},
		{"not adjacent", guard("t = 1") + "        s = 2\n" + guard("t = 3"), 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			out, rs, _ := applyTo(t, `
      PROGRAM MAIN
      REAL a(16,16)
      COMMON /c/ k
      my$p = myproc()
      do k = 1,15
`+row.body+`      enddo
      END
`+callees)
			if got := strings.Count(out, "        if ("); got != row.keep {
				t.Errorf("%d IFs, want %d:\n%s", got, row.keep, out)
			}
			if merged := hasRemark(rs, explain.Applied, "guard-merge", ""); merged != (row.keep < strings.Count(row.body, "if (")) {
				t.Errorf("guard-merge remark: %v, remarks %v", merged, rs)
			}
		})
	}
}
