! the pipelined spelling of partition_extents.f: both recurrences are
! carried across the blocks of a, but b is dealt out in blocks of 3
      PROGRAM QEXTENTS
      PARAMETER (n$proc = 4)
      REAL a(8), b(12)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 2, 8
        a(i) = a(i-1) + 1.0
        b(i) = b(i-1) + 2.0
      enddo
      END
