! col reads a(2,kk), a column its caller passes as k+1: the broadcast
! delayed to the caller kept the callee's kk as its root and column
! (broadcast a(2,kk) from MOD((kk - 1),4)), a name the caller does not
! have, and the run stopped with "A: unknown variable kk"; an actual
! v ± c folds into the root and the section's anchor
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL a(8,16), b(8,16)
      DISTRIBUTE a(:,CYCLIC)
      DISTRIBUTE b(:,CYCLIC)
      do k = 1,12
        call col(a, b, k+1)
      enddo
      END
      SUBROUTINE col(a, b, kk)
      REAL a(8,16), b(8,16)
      do j = 1,16
        b(1,j) = a(2,kk)
      enddo
      END
