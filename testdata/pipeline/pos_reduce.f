! a reduction shares the pipelined loop: the send has to leave before
! the processors meet in the global sum, which the successor can only
! join once it has received
! expect applied loop i pipelined on x(i-1)
      PROGRAM RED
      PARAMETER (n$proc = 4)
      REAL x(32)
      DISTRIBUTE x(BLOCK)
      s = 0.0
      do i = 2, 32
        x(i) = x(i-1) * 0.5 + 1.0
        s = s + x(i)
      enddo
      do i = 2, 32
        x(i) = x(i) + s
      enddo
      END
