! listing 61a0371e8131e34560c80608466cfb18
! a's assignment and the callee f's delayed constraint on b reach the
! i loop with constraints that select the same iterations (BLOCK, the
! same extent, no offset); the loop keeps the first one registered, the
! assignment's, so the broadcast of x(3) before it goes to the owners
! of a(1:16): assignments register before calls
      PROGRAM ORDERA
      PARAMETER (n$proc = 4)
      REAL a(16), b(16), x(16)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      DISTRIBUTE x(BLOCK)
      do i = 1, 16
        a(i) = x(3)
        call f(b, i)
      enddo
      END
      SUBROUTINE f(b, i)
      REAL b(16)
      b(i) = 2.0
      END
