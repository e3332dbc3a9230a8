! m bounds the rows daxpy reads. It is assigned between the broadcast
! of column k and the call, so the section sent cannot name it (it is
! the whole column) and m stays with the owner of column j
! expect m applied owner of column j
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(12,12)
      DISTRIBUTE a(:,CYCLIC)
      do i = 1, 12
        do j = 1, 12
          a(i,j) = 1.0 / (i + j)
        enddo
        a(i,i) = 13.0
      enddo
      call elim(a, 12)
      END
      SUBROUTINE elim(a, n)
      REAL a(12,12)
      do k = 1, n-1
        do j = k+1, n
          m = n - MOD(j,2)
          call daxpy(a, m, k, j)
        enddo
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(12,12)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
