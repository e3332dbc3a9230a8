! error: P line 11: call colstep passes a(16,12) to the array formal a(0,0)
! a call communication marked pipelined whose emission was one
! statement, not a send/recv pair, panicked codegen (pair[1]); the
! formal a(0,0) does not conform to its actual, which is now an error
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
