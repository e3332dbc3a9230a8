! W reads X(1) in a DO bound, then calls S, which leaves X CYCLIC, then
! reads X once. livedecomp counted the bound read as a use while walking
! but not in its count of all uses, so it took the later read for none
! and left the restore after call S(X) to W's caller: the loop read X
! under BLOCK while it lay CYCLIC (MISMATCH Y[1]: NaN != 2 under
! interproc and immediate at every remap level)
      PROGRAM BND
      PARAMETER (n$proc = 4)
      REAL X(16), Y(16)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      call W(X, Y)
      END
      SUBROUTINE W(X, Y)
      REAL X(16), Y(16)
      do c = 0, X(1)
      enddo
      call S(X)
      do i = 2, 15
        Y(i) = X(i)
      enddo
      END
      SUBROUTINE S(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
