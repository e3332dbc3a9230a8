! error: DISTRIBUTE X under the IF at line 11
! the IF-guarded DISTRIBUTE reaching a CALL whose callee runs the loop
! on its formal (X[1]: NaN != 1 under run-time resolution, X[4]: NaN
! != 4 at P = 4 at the live, hoist and kills levels)
      PROGRAM DISTIFC
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      m = 1
      X(1) = 0
      if (m .GT. 0) then
        DISTRIBUTE X(CYCLIC)
      endif
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(16)
      do i = 2, 16
        X(i) = X(i-1) + 1
      enddo
      END
