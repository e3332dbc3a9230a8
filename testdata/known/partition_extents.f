! a loop over two BLOCK arrays of unequal extents (blocks of 2 and 3 at
! P = 4) is partitioned by one of them: b(3) is assigned by p1 under
! a's block, which b's owner p0 never sees
      PROGRAM PEXTENTS
      PARAMETER (n$proc = 4)
      REAL a(8), b(12)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 8
        a(i) = i
        b(i) = 2 * i
      enddo
      END
