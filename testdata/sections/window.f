! f's shifted read of a(k+1:n,j) is delayed because column j is known
! only in the caller; its rows are anchored at one end only and f
! writes the same rows, so the k loop carries the dependence and the
! shift stays inside it
      PROGRAM WIN
      PARAMETER (n$proc = 4)
      REAL a(64,4), b(64,4)
      ALIGN b(i,j) with a(i,j)
      DISTRIBUTE a(BLOCK,:)
      do j = 1, 4
        do i = 1, 64
          a(i,j) = i * 1.0 + j
          b(i,j) = 0.0
        enddo
      enddo
      do m = 60, 62
        do j = 1, 4
          do k = 1, 10
            call f(a, b, k, m, j)
          enddo
        enddo
      enddo
      END
      SUBROUTINE f(a, b, k, n, j)
      REAL a(64,4), b(64,4)
      do i = k, n-1
        b(i,j) = a(i+1,j)
      enddo
      do i = k+1, n
        a(i,j) = b(i,j) * 0.5
      enddo
      END
