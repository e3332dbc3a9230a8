! remap_callee_final.f with the stencil in the main program: the restore
! after call S(X) must stay, because S returns X CYCLIC (this variant
! passed before the model knew a callee's final layout only because the
! main program's entry layout was unknown)
      PROGRAM FINM
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      call S(X)
      do i = 2, 15
        X(i) = X(i-1) + X(i+1)
      enddo
      END
      SUBROUTINE S(X)
      REAL X(16)
      X(1) = X(2) + 1
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
