! the longest reach one neighbour can serve: block size 6, c = -5
! expect applied loop i pipelined on x(i-5)
      PROGRAM CBLK
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 6, 24
        x(i) = 0.5 * x(i-5) + 1.0
      enddo
      END
