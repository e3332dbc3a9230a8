! S's first DISTRIBUTE X(CYCLIC) is delegated to its callers (X arrives
! CYCLIC), and its DISTRIBUTE X(BLOCK) was coalesced against the
! inherited BLOCK, so the stencil read X under BLOCK while it lay CYCLIC
! (MISMATCH X[1]: 2 != 5 at live, hoist and kills)
      PROGRAM BEF
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      DISTRIBUTE X(BLOCK)
      do i = 2, 15
        X(i) = X(i-1) + X(i+1)
      enddo
      END
