! remap_kill_if.f with F2 called from a loop that runs no iteration: the
! restore after the k loop went in place through the loop's kill
! (MISMATCH X[0]: NaN != 1 at kills)
      PROGRAM KZT
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      m = 0
      do k = 1, 3
        call F1(X)
      enddo
      do j = 1, m
        call F2(X)
      enddo
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
