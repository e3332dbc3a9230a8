package spmd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// TestRunJoinsAllErrors: when one processor's node program fails and a
// peer is blocked waiting on it, Run reports both — the failing pid's
// interpreter error and the peer's abort — not just the lowest pid's.
func TestRunJoinsAllErrors(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4)
      my$p = myproc()
      if (my$p .EQ. 0) then
        X(99) = 1.0
      endif
      if (my$p .EQ. 1) then
        recv X(1:2) from 0
      endif
      END
`)
	_, err := Lower(prog, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if err == nil {
		t.Fatal("run with a failing processor returned nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "p0:") || !strings.Contains(msg, "out of bounds") {
		t.Errorf("error does not name p0's failure: %v", msg)
	}
	var ae *machine.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error does not join p1's abort: %v", msg)
	}
	if ae.PID != 1 || ae.Origin != 0 {
		t.Errorf("abort = %+v, want p1 aborted by p0", ae)
	}
}

// TestMismatchedRecvDeadlock: two processors each receiving from the
// other with nobody sending is reported as a structured deadlock with
// source attribution.
func TestMismatchedRecvDeadlock(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM MISMATCH
      REAL a(8)
      my$p = myproc()
      if (my$p .EQ. 0) then
        recv a(1:4) from 1
      endif
      if (my$p .EQ. 1) then
        recv a(5:8) from 0
      endif
      END
`)
	_, err := Lower(prog, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	var dl *machine.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	if dl.Deadline || dl.Live != 2 || len(dl.Blocked) != 2 {
		t.Fatalf("report = %+v, want deadlock detection with 2 blocked", dl)
	}
	for i, want := range []struct {
		pid, peer int
	}{{0, 1}, {1, 0}} {
		b := dl.Blocked[i]
		if b.PID != want.pid || b.Peer != want.peer || b.Op != "recv" {
			t.Errorf("Blocked[%d] = %+v, want p%d recv from p%d", i, b, want.pid, want.peer)
		}
		if b.Proc != "MISMATCH" || b.Line == 0 {
			t.Errorf("Blocked[%d] unattributed: %+v", i, b)
		}
	}
	// the rendered report is the diagnostic the CLI prints
	if msg := err.Error(); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "MISMATCH") {
		t.Errorf("report text lacks attribution:\n%s", msg)
	}
}

// TestDeadlineOption: a run that never deadlocks and never ends is
// bounded by the deadline. p0 waits on a receive p1 never sends while
// p1 spins in a long DO; p1 is runnable throughout, so the expiry
// report, not a deadlock report, names p0 blocked at its line. (The
// roles are this way round because the engine runs one node program at
// a time, in pid order until each first blocks: a spinning p0 would
// keep p1 from ever reaching its receive.)
func TestDeadlineOption(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM SPIN
      REAL a(4)
      my$p = myproc()
      if (my$p .EQ. 0) then
        recv a(1:4) from 1
      endif
      if (my$p .EQ. 1) then
        do i = 1, 2000000000
        enddo
      endif
      END
`)
	_, err := Lower(prog, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{Deadline: 50 * time.Millisecond})
	var dl *machine.DeadlockError
	if !errors.As(err, &dl) || !dl.Deadline {
		t.Fatalf("Run = %v, want deadline *DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0].PID != 0 || dl.Blocked[0].Peer != 1 ||
		dl.Blocked[0].Proc != "SPIN" || dl.Blocked[0].Line != 6 {
		t.Errorf("blocked = %+v, want p0 receiving from p1 at SPIN:6", dl.Blocked)
	}
}

// TestCollectivesSmallP runs broadcast, allgather and global reduce at
// P=1, 3 and 6 and checks the results against the closed form.
func TestCollectivesSmallP(t *testing.T) {
	for _, P := range []int{1, 3, 6} {
		P := P
		t.Run(fmt.Sprintf("P=%d", P), func(t *testing.T) {
			n := 2 * P
			src := fmt.Sprintf(`
      PROGRAM COLL
      REAL X(%d), Y(%d), B(2)
      my$p = myproc()
      do i = my$p * 2 + 1, my$p * 2 + 2
        X(i) = i
      enddo
      allgather X(1:%d)
      s = 0.0
      do i = 1, %d
        s = s + X(i)
      enddo
      globalsum s
      if (my$p .EQ. 0) then
        B(1) = 41.0
        B(2) = 43.0
      endif
      broadcast B(1:2) from 0
      do i = my$p * 2 + 1, my$p * 2 + 2
        Y(i) = s + B(1) + B(2)
      enddo
      END
`, n, n, n, n)
			prog := parseProg(t, src)
			xd, err := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{n}, P)
			if err != nil {
				t.Fatal(err)
			}
			yd, err := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{n}, P)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Lower(prog, P, map[string]*decomp.Dist{"X": xd, "Y": yd}, nil, nil).Run(context.Background(), machine.DefaultConfig(P), Options{})
			if err != nil {
				t.Fatal(err)
			}
			// every proc's local sum is 1+..+n; globalsum multiplies by P
			sum := float64(n*(n+1)/2) * float64(P)
			want := sum + 41 + 43
			for i := 0; i < n; i++ {
				if got := res.Arrays["Y"][i]; got != want {
					t.Errorf("Y[%d] = %v, want %v", i, got, want)
				}
			}
			if P == 1 && res.Stats.Messages != 0 {
				t.Errorf("P=1 collectives sent %d messages", res.Stats.Messages)
			}
		})
	}
}
