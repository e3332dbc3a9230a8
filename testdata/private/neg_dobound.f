! every processor evaluates the bounds of the inner loop
! expect m missed every processor executes a statement that uses it
      PROGRAM BOUND
      PARAMETER (n$proc = 4)
      REAL c(12,12)
      DISTRIBUTE c(:,CYCLIC)
      do j = 1, 12
        m = 6
        do i = 1, m
          c(i,j) = m + i
        enddo
      enddo
      END
