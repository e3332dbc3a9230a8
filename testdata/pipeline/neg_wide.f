! block size 6 and c = -6: the cells come from beyond the neighbour's
! boundary
! parent c9a40eddf8e1fe2b06ad38273823d733
! expect missed the shift reaches past the neighbouring block
      PROGRAM WIDE
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 7, 24
        x(i) = 0.5 * x(i-6) + 1.0
      enddo
      END
