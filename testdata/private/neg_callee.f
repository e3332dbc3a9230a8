! a callee assigns t through an actual
! expect t missed a callee may assign it
      PROGRAM CALLEE
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        call bump(t)
        a(j) = t + 1.0
      enddo
      END
      SUBROUTINE bump(x)
      x = x + 1.0
      END
