! error: call w passes (2 + A), which reads the REAL A, to the INTEGER formal j
! names are case-sensitive, so A is an implicit REAL scalar, not the
! array a: the caller's ownership guard for w's a(j) divided the REAL
! actual 2 + A in floating point, no processor owned the quotient, and
! nobody stored the element (a[1]: 2 != 0 under interproc)
      PROGRAM REALACT
      PARAMETER (n$proc = 4)
      REAL a(16)
      DISTRIBUTE a(BLOCK)
      do i = 1, 2
        call w(a, 2+A)
      enddo
      END
      SUBROUTINE w(a, j)
      REAL a(16)
      a(j) = 0
      END
