! colstep reads a(1,j), a constant row of a column only its caller
! knows: the broadcast delayed to the caller kept the column but lost
! the row, and sent a(0,j) from processor -1 / 4 (a[72] = NaN,
! reference 1; found by FuzzRun)
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do j = 1,1
        do i = 1,7
          call colstep(a, 7, j)
        enddo
      enddo
      END
      SUBROUTINE colstep(a, i, j)
      REAL a(16,12)
      a(7,1) = a(1,j)
      END
