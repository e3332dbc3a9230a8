! the first read of t sees what WithInitScalars seeded
! expect t missed live on entry
      PROGRAM SEEDED
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        a(j) = t + 1.0
        t = b(j) * 2.0
      enddo
      END
