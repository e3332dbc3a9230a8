! step adds 1 to a(:,k) and then reads a(i+1,k): its shift was
! delayed to the call, ahead of step's own write (1(b)(vi); MISMATCH
! a[12]: 17 != 18 at P = 4)
      PROGRAM DEW
      PARAMETER (n$proc = 4)
      REAL a(16,4)
      DISTRIBUTE a(BLOCK,:)
      do k = 1,4
        call step(a, k)
      enddo
      END
      SUBROUTINE step(a, k)
      REAL a(16,4)
      do i = 1,16
        a(i,k) = a(i,k) + 1
      enddo
      do i = 1,15
        a(i,k) = a(i+1,k)
      enddo
      END
