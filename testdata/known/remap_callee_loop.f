! row (xii): colstep redistributes its formal CYCLIC inside a j, i loop
! nest of the main program, whose a is (BLOCK,:). The restore after the
! call was eliminated as dead (the program's exit is no use) and the
! remap to CYCLIC as coalesced, because the main program's entry layout
! was unknown to the model (MISMATCH a[12]: 3 != 4 at live, hoist and
! kills; NaN != 4 at none under the interproc strategy, where the
! allgather of a(i-1,j) ran before the remap it reads under)
      PROGRAM XII
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
      DISTRIBUTE a(CYCLIC,:)
      a(i,j) = a(i,j) + 0.5*a(i-1,j)
      END
