! two assignments reach one use; the second reads another owner's
! column and stays replicated, the first is the owner's alone
! expect t applied owner of column k
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
      call pick(a, 12)
      END
      SUBROUTINE pick(a, n)
      REAL a(12,12)
      do k = 1, n-1
        t = a(1,k)
        if (k .GT. 6) then
          t = a(1,k+1)
        endif
        a(2,k) = t
      enddo
      END
