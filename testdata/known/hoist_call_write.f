! the shift of a(i+1) was hoisted above the loop although call w,
! earlier in the same iteration, writes a(i+1) (MISMATCH b[3]: 5 != 15
! at P = 4, under immediate too)
      PROGRAM HCW
      PARAMETER (n$proc = 4)
      REAL a(16), b(16)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1,15
        call w(a, i+1)
        b(i) = a(i+1)
      enddo
      END
      SUBROUTINE w(a, j)
      REAL a(16)
      a(j) = j*3.0
      END
