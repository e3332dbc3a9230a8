! t is a formal: the caller reads it after the call
! expect t missed it is a formal or in COMMON
      PROGRAM FORMAL
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      call f(a, b, t)
      a(1) = t
      END
      SUBROUTINE f(a, b, t)
      REAL a(48), b(48)
      do j = 1, 48
        t = b(j) * 2.0
        a(j) = t + 1.0
      enddo
      END
