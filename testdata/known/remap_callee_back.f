! S's first DISTRIBUTE X(CYCLIC) is delegated to its callers, then S
! remaps X back to BLOCK and reads X(i), i a formal. The broadcast was
! delayed to the caller, built under BLOCK and run after the caller's
! remap to CYCLIC, and S's remap to BLOCK dropped what it delivered
! (MISMATCH Y[1]: NaN != 10 under interproc at every remap level)
      PROGRAM BAK
      PARAMETER (n$proc = 4)
      REAL X(16), Y(16)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      do k = 9, 10
        call S(X, Y, k)
      enddo
      END
      SUBROUTINE S(X, Y, i)
      REAL X(16), Y(16)
      DISTRIBUTE X(CYCLIC)
      Y(1) = X(4)
      DISTRIBUTE X(BLOCK)
      Y(2) = X(i)
      END
