! kk selects the column daxpy's delayed broadcast sends, and every
! processor takes part in a broadcast: the owner of column j alone may
! not compute it, although the guarded call is its only use. t, which
! no communication names, stays with the owner of column j
! expect kk missed it selects the root of a broadcast
! expect t applied owner of column j
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
          kk = k + j - j
          call daxpy(a, n, kk, j)
          t = a(n,j) * 0.5
          a(n,j) = t + t
        enddo
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(12,12)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
