! col reads a(2,kk), a column its caller passes as 2*k: the broadcast
! delayed to the caller kept the callee's kk as its root (broadcast
! a(2,kk) from MOD((kk - 1),4)) and the run stopped with "A: unknown
! variable kk"; a root the caller cannot name is an allgather of the
! section, widened over the column
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL a(8,16), b(8,16)
      DISTRIBUTE a(:,CYCLIC)
      DISTRIBUTE b(:,CYCLIC)
      do k = 1,8
        call col(a, b, 2*k)
      enddo
      END
      SUBROUTINE col(a, b, kk)
      REAL a(8,16), b(8,16)
      do j = 1,16
        b(1,j) = a(2,kk)
      enddo
      END
