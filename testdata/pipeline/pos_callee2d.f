! ADI's column phase with the statement in a callee: the section comes
! back anchored at j, which the carrying loop i does not assign
! expect applied loop i pipelined on a(i-1)
      PROGRAM C2D
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do j = 1, 12
        do i = 2, 16
          call colstep(a, i, j)
        enddo
      enddo
      END
      SUBROUTINE colstep(a, i, j)
      REAL a(16,12)
      a(i,j) = a(i,j) + 0.5 * a(i-1,j)
      END
