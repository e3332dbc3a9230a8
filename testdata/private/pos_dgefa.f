! the dgefa triple: idamax's s, t and the call to dscal all run on the
! owner of column k, and column k is broadcast once per step
! expect s applied owner of column k
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
      call dgefa(a, 12)
      END
      SUBROUTINE dgefa(a, n)
      REAL a(12,12)
      do k = 1, n-1
        call idamax(a, n, k)
        t = 1.0 / a(k,k)
        call dscal(a, n, k, t)
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
      enddo
      END
      SUBROUTINE idamax(a, n, k)
      REAL a(12,12)
      s = 0.0
      do i = k, n
        s = MAX(s, ABS(a(i,k)))
      enddo
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(12,12)
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(12,12)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
