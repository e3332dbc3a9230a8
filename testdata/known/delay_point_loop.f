! the broadcast of the constant row a(1,j) is placed at the call, inside
! the i loop, which colstep's delayed ownership of a(i,1) had reduced:
! each processor took part in it a different number of times (a[48] =
! 1, reference 2; found by FuzzRun once delay_point_const.f was fixed)
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do j = 1,2
        do i = 1,7
          call colstep(a, i, j)
        enddo
      enddo
      END
      SUBROUTINE colstep(a, i, j)
      REAL a(16,12)
      a(i,1) = a(1,j)
      END
