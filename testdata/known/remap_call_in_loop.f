! T remaps X and back inside the k loop. The broadcast of X(5) was
! hoisted above the loop, and T's first remap dropped it before the
! second iteration read it (MISMATCH Y[1]: NaN != 5 under interproc and
! immediate at every remap level)
      PROGRAM INN
      PARAMETER (n$proc = 4)
      REAL X(16), Y(16)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      do k = 1, 3
        Y(k) = X(5)
        call T(X, Y)
      enddo
      END
      SUBROUTINE T(X, Y)
      REAL X(16), Y(16)
      Y(16) = X(2)
      DISTRIBUTE X(CYCLIC)
      Y(15) = X(4)
      DISTRIBUTE X(BLOCK)
      Y(14) = X(3)
      END
