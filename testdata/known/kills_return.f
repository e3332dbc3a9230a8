! F2 overwrites all of X only if it does not return first: the restore
! after the k loop must move X's values, not relabel them in place
! (MISMATCH X[0]: NaN != 1 at kills while a RETURN went unread)
      PROGRAM KRT
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      do k = 1, 2
        call F1(X)
      enddo
      call F2(X)
      END
      SUBROUTINE F1(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
      SUBROUTINE F2(X)
      REAL X(16)
      m = 0
      if (m .EQ. 0) return
      do i = 1, 16
        X(i) = 1.0
      enddo
      END
