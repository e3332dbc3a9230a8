! a loop that runs downwards: the dependence test is blind to the sign
! of the step and reports x(i-1) as carried, the bounds of a loop that
! does not step by one are not reduced
! parent c8251173c5fdf6329d42773d91cc2a69
! expect missed the dependence does not run in the direction of a loop that steps by one
      PROGRAM DOWN
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 24, 2, -1
        x(i) = 0.5 * x(i-1) + 1.0
      enddo
      END
