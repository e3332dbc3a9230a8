! y is assigned one cell ahead of x: two constraints reach the loop, so
! its bounds are not reduced
! parent 642a7e3bc78214205691a7ce2980ec56
! expect missed statements in the loop are partitioned differently
      PROGRAM MIXED
      PARAMETER (n$proc = 4)
      REAL x(24), y(24)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      do i = 2, 23
        x(i) = 0.5 * x(i-1) + 1.0
        y(i+1) = 2.0
      enddo
      END
