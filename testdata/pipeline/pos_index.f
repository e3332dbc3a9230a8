! the index of a pipelined loop is read after it: every processor must
! hold the sequential final value, not its own last iteration
! expect applied loop i pipelined on x(i-1)
      PROGRAM INDEX
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 2, 20
        x(i) = 0.5 * x(i-1) + 1.0
      enddo
      do j = 2, 24
        x(j) = x(j) + i
      enddo
      END
