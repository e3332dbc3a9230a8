! two recurrences on two arrays in one loop, each feeding the other
! expect applied loop i pipelined on x(i-2)
! expect applied loop i pipelined on y(i-1)
      PROGRAM TWO
      PARAMETER (n$proc = 4)
      REAL x(24), y(24)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      do i = 3, 24
        x(i) = 0.5 * y(i-1) + 1.0
        y(i) = 0.25 * x(i-2) + x(i)
      enddo
      END
