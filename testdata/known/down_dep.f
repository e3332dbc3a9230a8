! a loop that runs downwards carries x(i+1) from the iteration before:
! a dependence test blind to the step took it for an anti dependence and
! hoisted the message above the loop (MISMATCH x[0]: NaN != 2.00000262260437)
      PROGRAM DOWNDEP
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 1, 24
        x(i) = i
      enddo
      do i = 23, 1, -1
        x(i) = 0.5 * x(i+1) + 1.0
      enddo
      END
