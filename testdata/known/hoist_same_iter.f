! the shift of a(i+1) was hoisted above the loop although the same
! iteration writes a(i+1) first: a loop-independent true dependence
! (MISMATCH b[3]: 5 != 12 at P = 4, under immediate too)
      PROGRAM HSI
      PARAMETER (n$proc = 4)
      REAL a(16), b(16)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1,15
        a(i+1) = i*3.0
        b(i) = a(i+1)
      enddo
      END
