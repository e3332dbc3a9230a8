! the restore after the first call F1(X) was eliminated as dead: the
! remap inside the j loop blocked every path to the stencil, but the
! loop runs no iteration (MISMATCH X[1]: 2 != 3 at live)
      PROGRAM ZT
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      m = 0
      call F1(X)
      do j = 1, m
        call F1(X)
      enddo
      do i = 2, 15
        X(i) = X(i-1) + X(i+1)
      enddo
      END
      SUBROUTINE F1(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
