! the two uses are owned by different processors
! expect t missed different ownership constraints
      PROGRAM MIXED
      PARAMETER (n$proc = 4)
      REAL a(48), b(48), c(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      DISTRIBUTE c(CYCLIC)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        a(j) = t + 1.0
        c(j) = t - 1.0
      enddo
      END
