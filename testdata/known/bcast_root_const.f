! col reads a(2,kk), a column its two calls pass as the constants 3
! and 6: the broadcasts delayed to the caller kept the callee's kk as
! their root and the run stopped with "A: unknown variable kk"; a root
! the caller cannot name is an allgather of the section
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL a(8,16), b(8,16)
      DISTRIBUTE a(:,CYCLIC)
      DISTRIBUTE b(:,CYCLIC)
      call col(a, b, 3)
      call col(a, b, 6)
      END
      SUBROUTINE col(a, b, kk)
      REAL a(8,16), b(8,16)
      do j = 1,16
        b(1,j) = a(2,kk)
      enddo
      END
