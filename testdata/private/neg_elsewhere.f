! the owner of column k consumes t, but t reads column k+1
! expect t missed not local to the owner of its uses
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(12,12)
      DISTRIBUTE a(:,CYCLIC)
      do i = 1, 12
        do j = 1, 12
          a(i,j) = 1.0 / (i + j)
        enddo
      enddo
      call shift(a, 12)
      END
      SUBROUTINE shift(a, n)
      REAL a(12,12)
      do k = 1, n-1
        t = a(k,k+1)
        a(k,k) = t
      enddo
      END
