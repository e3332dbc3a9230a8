! S reads X(i), i a formal, after a DISTRIBUTE it runs itself (its first
! use of X comes before it, so nothing is delegated to the callers). The
! broadcast was delayed to the caller and ran there before the call,
! rooted at X(i)'s CYCLIC owner while X lay BLOCK; S's remap then dropped
! what it delivered (MISMATCH Y[1]: NaN != 10 and X[8]: NaN != 9 under
! interproc at every remap level)
      PROGRAM AFT
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
      Y(1) = X(2)
      DISTRIBUTE X(CYCLIC)
      Y(2) = X(i)
      END
