! S redistributes X and never uses it: its DISTRIBUTE has no live
! values, so X comes back as it went in. T needs X CYCLIC, and the remap
! before call T(X) must stay: a model that took S to return X CYCLIC
! would drop the restore after call S(X) and then that remap too
      PROGRAM UNU
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      call S(X)
      call T(X)
      do i = 2, 15
        X(i) = X(i-1) + X(i+1)
      enddo
      END
      SUBROUTINE S(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      END
      SUBROUTINE T(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
