! want: r(1) = 2
! want: r(2) = 3
! want: r(3) = -2
! want: m(:) = 2
! An assignment to an INTEGER variable truncates toward zero, as F77's
! INT does: k = 2.5 stored 2.5, and the exit value of the reduced loop
! do i = 1, x with x = 2.9 read 3.9 on the compiled run (codegen's
! i = MAX(1, x + 1)) where the reference leaves 3; m, an INTEGER array,
! truncates its elements alike
      PROGRAM INTASN
      PARAMETER (n$proc = 4)
      REAL b(8), r(3)
      INTEGER m(8)
      DISTRIBUTE b(BLOCK)
      DISTRIBUTE m(BLOCK)
      x = 2.9
      do i = 1, x
        b(i) = 5.0
      enddo
      do j = 1, 8
        m(j) = b(1) - 2.5
      enddo
      k = 2.5
      r(1) = k
      r(2) = i
      k = -2.5
      r(3) = k
      END
