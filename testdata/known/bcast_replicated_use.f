! column k is read inside the reduced j loop, which only the owners of
! columns k+1..8 run, and again by the replicated assignment after it,
! which every processor runs: the column must reach every processor
! (b(k) reads NaN where a receiver is missing)
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(8,8), b(8)
      DISTRIBUTE a(:,CYCLIC)
      call step(a, b, 8)
      END
      SUBROUTINE step(a, b, n)
      REAL a(8,8), b(8)
      do k = 1, n-1
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
        b(k) = a(k+1,k)
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(8,8)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * 0.5
      enddo
      END
