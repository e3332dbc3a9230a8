! the callee reads ahead of what it writes: iteration i reads x(i+1),
! which only a later iteration writes, an anti-dependence. Its shift is
! sent once before the caller's loop; it stayed inside the loop while
! the caller's section test could not tell this from a recurrence
! (testdata/pipeline's neg_against.f)
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
