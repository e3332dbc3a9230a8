! f's ownership of a(j) was delayed to main although f also calls g,
! which carries no constraint: only the owner of a(j) made the call,
! so the replicated b(1:4) was incremented once, not 16 times
! (MISMATCH b[0]: 5 != 17 at P = 4)
      PROGRAM DUC
      PARAMETER (n$proc = 4)
      REAL a(16), b(4)
      DISTRIBUTE a(BLOCK)
      do j = 1,16
        call f(a, b, j)
      enddo
      END
      SUBROUTINE f(a, b, j)
      REAL a(16), b(4)
      a(j) = a(j) + 1
      call g(b)
      END
      SUBROUTINE g(b)
      REAL b(4)
      do i = 1,4
        b(i) = b(i) + 1
      enddo
      END
