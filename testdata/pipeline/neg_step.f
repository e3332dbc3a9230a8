! a loop that steps by 2 carries x(i-2) from the iteration before. It
! does not step by one, so its bounds are not reduced and the shift
! stays inside it
! parent 9896a0c12fa7cf81726e3bc5dafc5bf6
! expect missed the dependence does not run in the direction of a loop that steps by one
      PROGRAM STRIDE
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 3, 24, 2
        x(i) = 0.5 * x(i-2) + 1.0
      enddo
      END
