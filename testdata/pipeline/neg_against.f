! the callee reads ahead of what it writes: an anti-dependence, which
! the caller's section test cannot tell from a recurrence
! parent 922ea8ca313149e4206ab00acaed41b6
! expect missed the dependence does not run in the direction of a loop that steps by one
      PROGRAM AHEAD
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 1, 23
        call step(x, i)
      enddo
      END
      SUBROUTINE step(x, i)
      REAL x(24)
      x(i) = 0.5 * x(i+1) + 1.0
      END
