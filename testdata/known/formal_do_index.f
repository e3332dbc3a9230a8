! fill's DO index is its formal i, which the caller reads after the call:
! with fill's loop reduced, each processor returned its own last
! iteration (p0: 4 where the reference has 16) — an index that is a
! formal is live at the callee's exit
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(16), b(16)
      DISTRIBUTE a(BLOCK)
      call fill(a, i)
      b(1) = i
      END
      SUBROUTINE fill(a, i)
      REAL a(16)
      do i = 1, 16
        a(i) = i
      enddo
      END
