! a loop that runs downwards reads x(i-1), which a later iteration
! writes: an anti dependence, so the shift leaves the loop. A dependence
! test blind to the step took it for a true dependence carried by the
! loop and kept one message per iteration inside; the row holds that
! the shift may leave, at every machine size
      PROGRAM DOWN
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 24, 2, -1
        x(i) = 0.5 * x(i-1) + 1.0
      enddo
      END
