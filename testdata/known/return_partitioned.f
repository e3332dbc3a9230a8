! F2 returns in the second iteration of a loop whose bounds were reduced:
! only the processor that ran i = 2 returned, the others wrote their
! whole block (MISMATCH X[4]: 1 != 5)
      PROGRAM RETPART
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      do i = 1, 16
        X(i) = 5.0
      enddo
      call F2(X)
      END
      SUBROUTINE F2(X)
      REAL X(16)
      do i = 1, 16
        X(i) = 1.0
        if (i .EQ. 2) return
      enddo
      END
