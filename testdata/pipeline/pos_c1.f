! the 1-D recurrence with the shortest reach: one cell per boundary
! expect applied loop i pipelined on x(i-1)
      PROGRAM C1
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 2, 24
        x(i) = 0.5 * x(i-1) + 1.0
      enddo
      END
