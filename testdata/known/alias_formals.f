! error: ALIASF line 12: call w1 passes the array a to the formals u and v, and w1 may define u
! F77 forbids defining a formal that shares its actual with another; the
! reference ran the aliased recurrence, while the compiled code
! allgathered v before the loop (MISMATCH a[2]: 2 != 1 at P = 4)
      PROGRAM ALIASF
      PARAMETER (n$proc = 4)
      REAL a(32)
      DISTRIBUTE a(CYCLIC)
      do i = 1, 32
        a(i) = i
      enddo
      call w1(a, a)
      END
      SUBROUTINE w1(u, v)
      REAL u(32), v(32)
      do i = 2, 10
        u(i) = v(i-1)
      enddo
      END
