! the restore after the k loop was made an in-place descriptor update
! because F2 overwrites X, but F2 runs only if m .GT. 0, and X's values
! are read out at the end (MISMATCH X[0]: NaN != 1 at kills)
      PROGRAM KIF
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      m = 0
      do k = 1, 3
        call F1(X)
      enddo
      if (m .GT. 0) call F2(X)
      END
      SUBROUTINE F1(X)
      REAL X(16)
      DISTRIBUTE X(CYCLIC)
      X(3) = X(4) + 1
      END
      SUBROUTINE F2(X)
      REAL X(16)
      do i = 1, 16
        X(i) = 1.0
      enddo
      END
