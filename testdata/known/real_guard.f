! error: subscript 1 of the distributed array y reads the REAL scalar B
! a REAL scalar in an assigned subscript made the ownership guard a
! floating-point division that no processor satisfied
      PROGRAM REALGRD
      PARAMETER (n$proc = 4)
      REAL y(16)
      DISTRIBUTE y(BLOCK)
      do i = 1, 16
        y(i) = 2
      enddo
      B = 0
      y(2+B) = 1
      END
