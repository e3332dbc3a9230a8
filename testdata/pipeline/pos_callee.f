! the recurrence is in the callee, the loop that carries it in the
! caller: constraint and shift are both delayed and meet at loop i
! expect applied loop i pipelined on x(i-1)
      PROGRAM CALLEE
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 2, 24
        call step(x, i)
      enddo
      END
      SUBROUTINE step(x, i)
      REAL x(24)
      x(i) = 0.5 * x(i-1) + 1.0
      END
