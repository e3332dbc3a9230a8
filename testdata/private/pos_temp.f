! a scalar temporary inside a partitioned loop costs nothing: no
! message, and the loop keeps its reduced bounds
! expect t applied owner of element j
      PROGRAM TEMP
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        a(j) = t + 1.0
      enddo
      END
