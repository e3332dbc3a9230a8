! the loop visits blocks 2 and 3 only: the first and last processors run
! no iteration and still pass the boundary on
! expect applied loop i pipelined on x(i-1)
      PROGRAM RNG
      PARAMETER (n$proc = 4)
      REAL x(32)
      DISTRIBUTE x(BLOCK)
      do i = 12, 20
        x(i) = x(i-1) * 0.5 + 2.0
      enddo
      END
