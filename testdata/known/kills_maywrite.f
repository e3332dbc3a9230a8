! the restore after the k loop was made an in-place descriptor update
! because F2's section summary says it writes all of X, but X(j) is one
! element the summary widens and the loop around it runs no iteration:
! a may-write read as a must-write (MISMATCH X[0]: NaN != 1 at kills)
      PROGRAM KMW
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      j = 1
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
      do i = 1, 0
        X(j) = 0.0
      enddo
      END
