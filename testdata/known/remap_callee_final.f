! W's restore of X to BLOCK after call S(X) was coalesced: the model did
! not know that S returns X CYCLIC, so W's stencil read X under BLOCK
! while it lay CYCLIC (MISMATCH X[1]: 2 != 5 at live, hoist and kills)
      PROGRAM FIN
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      call W(X)
      END
      SUBROUTINE W(X)
      REAL X(16)
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
