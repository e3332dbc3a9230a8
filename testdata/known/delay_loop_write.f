! step's loop over j calls daxpy, whose broadcast of column k was
! re-delayed out of that loop although daxpy writes column j = k in
! it: the later columns read a stale a(:,k) (1(b)(iv); MISMATCH a[2]:
! 8 != 16 at P = 4)
      PROGRAM DLW
      PARAMETER (n$proc = 4)
      REAL a(16,8)
      DISTRIBUTE a(:,BLOCK)
      do k = 1,2
        call step(a, k)
      enddo
      END
      SUBROUTINE step(a, k)
      REAL a(16,8)
      do j = 1,4
        call daxpy(a, k, j)
      enddo
      END
      SUBROUTINE daxpy(a, k, j)
      REAL a(16,8)
      do i = 1,16
        a(i,j) = a(i,k)*2
      enddo
      END
