! listing 9753d4e88b5bb4ff0a771fd5b83d5e98
! the shift of x the assignment reads and the callee g's delayed shift
! of y are both hoisted before the i loop: the local message is
! anchored first, the callee's after it
      PROGRAM ORDERB
      PARAMETER (n$proc = 4)
      REAL a(16), x(16), y(16), z(16)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      DISTRIBUTE z(BLOCK)
      do i = 1, 15
        a(i) = x(i+1)
        call g(y, z, i)
      enddo
      END
      SUBROUTINE g(y, z, i)
      REAL y(16), z(16)
      z(i) = y(i+1)
      END
