! as pos_callee, through one wrapper that re-delays both
! expect applied loop k pipelined on x(k-2)
      PROGRAM WRAP
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do k = 3, 24
        call outer(x, k)
      enddo
      END
      SUBROUTINE outer(x, i)
      REAL x(24)
      call step(x, i)
      END
      SUBROUTINE step(x, i)
      REAL x(24)
      x(i) = 0.5 * x(i-2) + 1.0
      END
