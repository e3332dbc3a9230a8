! f reads a(k+1:n) shifted and writes a(k+1:n). The range is known only
! in the caller, so the shift is delayed there, and the caller's k loop
! keeps it inside: sent once before the loop it would miss what
! iteration k wrote
      PROGRAM HALF
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      ALIGN b(i) with a(i)
      DISTRIBUTE a(BLOCK)
      do i = 1, 64
        a(i) = i * 1.0
        b(i) = 0.0
      enddo
      do m = 60, 64
        do k = 1, 10
          call f(a, b, k, m)
        enddo
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
