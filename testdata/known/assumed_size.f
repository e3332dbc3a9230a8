! error: ASIZE line 12: call twice passes x(16) to the array formal y(1)
! BLAS-1's assumed-size spelling y(1): the callee was partitioned by its
! declared bounds, one element, whatever the actual was (MISMATCH x[1]:
! 2 != 4 at P = 1)
      PROGRAM ASIZE
      PARAMETER (n$proc = 4)
      REAL x(16)
      DISTRIBUTE x(BLOCK)
      do i = 1, 16
        x(i) = i
      enddo
      call twice(x, 16)
      END
      SUBROUTINE twice(y, n)
      REAL y(1)
      do i = 1, n
        y(i) = 2 * y(i)
      enddo
      END
