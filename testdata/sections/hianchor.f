! anchored at the upper end: f reads a(m+1:k+1) shifted and writes
! a(m:k), which overlap from one iteration of k to the next
      PROGRAM HI
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      ALIGN b(i) with a(i)
      DISTRIBUTE a(BLOCK)
      do i = 1, 64
        a(i) = i * 1.0
        b(i) = 0.0
      enddo
      do m = 1, 3
        do k = 40, 60
          call f(a, b, k, m)
        enddo
      enddo
      END
      SUBROUTINE f(a, b, k, m)
      REAL a(64), b(64)
      do i = m, k
        b(i) = a(i+1)
      enddo
      do i = m, k
        a(i) = b(i) * 0.5
      enddo
      END
