! step calls bump, which adds 1 to a(:,k), and then reads a(i+1,k): its
! shift was delayed to the call, ahead of bump's write, as in
! delay_entry_write.f with the write in a callee (MISMATCH a[12]: 17 !=
! 18 at P = 4)
      PROGRAM DEC
      PARAMETER (n$proc = 4)
      REAL a(16,4)
      DISTRIBUTE a(BLOCK,:)
      do k = 1,4
        call step(a, k)
      enddo
      END
      SUBROUTINE step(a, k)
      REAL a(16,4)
      call bump(a, k)
      do i = 1,15
        a(i,k) = a(i+1,k)
      enddo
      END
      SUBROUTINE bump(a, k)
      REAL a(16,4)
      do i = 1,16
        a(i,k) = a(i,k) + 1
      enddo
      END
