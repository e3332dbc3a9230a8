! the same through a middle procedure, whose k loop carries the
! dependence: the shift is delayed to g and stays inside that loop
      PROGRAM MID
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      ALIGN b(i) with a(i)
      DISTRIBUTE a(BLOCK)
      do i = 1, 64
        a(i) = i * 1.0
        b(i) = 0.0
      enddo
      do m = 60, 64
        call g(a, b, m)
      enddo
      END
      SUBROUTINE g(a, b, n)
      REAL a(64), b(64)
      do k = 1, 10
        call f(a, b, k, n)
      enddo
      END
      SUBROUTINE f(a, b, k, n)
      REAL a(64), b(64)
      do i = k, n-1
        b(i) = a(i+1)
      enddo
      do i = k+1, n
        a(i) = b(i) * 0.5
      enddo
      END
