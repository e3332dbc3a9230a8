! daxpy keeps its broadcast of a(1,1) inside its loop (iteration j = 1
! writes what j = 2 reads) while its ownership constraint on j was
! delayed and the caller's j loop reduced: each processor made the
! broadcast a different number of times (MISMATCH a[1]: -1 != 1)
      PROGRAM dgefa
      PARAMETER (n$proc = 4)
      REAL a(8,8)
      DISTRIBUTE a(:,CYCLIC)
      do j = 1,2
        call daxpy(a,1,1,j)
      enddo
      END
      SUBROUTINE daxpy(a,l,m,j)
      REAL a(8,8)
      do i = l,m
        a(1,j) = -a(1,1)
      enddo
      END
