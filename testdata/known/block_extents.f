! two BLOCK arrays of unequal extents have unequal blocks (2 and 3 at
! P = 4): a(j) = b(j) is no aligned shift, p1 must be sent b(3)
      PROGRAM EXTENTS
      PARAMETER (n$proc = 4)
      REAL a(8), b(10)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do j = 1, 10
        b(j) = 2 * j
      enddo
      do j = 1, 7
        a(j) = b(j)
      enddo
      END
