! a two-link chain: u feeds t, t feeds the guarded call
! expect u applied owner of column k
! expect t applied owner of column k
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
      call scale(a, 12)
      END
      SUBROUTINE scale(a, n)
      REAL a(12,12)
      do k = 1, n-1
        u = a(k,k)
        t = 1.0 / u
        call dscal(a, n, k, t)
      enddo
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(12,12)
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
