! run-error: integer division by zero
! a call communication marked pipelined whose emission was one
! statement, not a send/recv pair, panicked codegen (pair[1])
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do j = 1,1
        do i = 2,7
          call colstep(a, i, j)
        enddo
      enddo
      END
      SUBROUTINE colstep(a, i, j)
      REAL a(0,0)
      a(i,0) = a(i-1,j)
      END
