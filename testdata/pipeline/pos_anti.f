! the synthetic shape: a recurrence and an anti-dependence on one array;
! the old x(i+1) is fetched before the loop, the new x(i-1) pipelined
! expect applied loop i pipelined on x(i-1)
! expect applied loop i pipelined on x(i-2)
      PROGRAM ANTI
      PARAMETER (n$proc = 4)
      REAL x(32)
      DISTRIBUTE x(BLOCK)
      do i = 2, 31
        x(i) = 0.5 * x(i-1) + 0.25 * x(i+1) + 1.0
      enddo
      do i = 3, 30
        x(i) = 0.5 * x(i-2) + 0.25 * x(i+2) + 2.0
      enddo
      END
