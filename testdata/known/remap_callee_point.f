! colstep redistributes its formal CYCLIC and reads a(2,j), whose
! broadcast its callers instantiate at the call. It was built under the
! caller's (BLOCK,:), rooted at row 2's BLOCK owner, and ran after the
! remap to CYCLIC that the call needs (MISMATCH a[12]: NaN != 13 under
! interproc at every remap level; found by FuzzRun from
! remap_callee_loop.f)
      PROGRAM PT
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do j = 1, 12
        do k = 2, 16
          call colstep(a, 2, j)
        enddo
      enddo
      END
      SUBROUTINE colstep(a, i, j)
      REAL a(16,12)
      DISTRIBUTE a(CYCLIC,:)
      a(10,j) = a(2,j)
      END
