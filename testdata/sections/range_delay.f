! f reads a(3:n) shifted and writes nothing of a: the range is known
! only in the callers of f, so the shift is delayed, leaves g's loop,
! which writes nothing of a either, and is sent by the main program once
! per call of g instead of by f once per call (48 messages at P = 4
! while ranges were not delayed, 6 now)
      PROGRAM RANGE
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      ALIGN b(i) with a(i)
      DISTRIBUTE a(BLOCK)
      call g(a, b, 60)
      call g(a, b, 50)
      END
      SUBROUTINE g(a, b, n)
      REAL a(64), b(64)
      do j = 1, 8
        call f(a, b, n)
      enddo
      END
      SUBROUTINE f(a, b, n)
      REAL a(64), b(64)
      do i = 2, n-1
        b(i) = b(i) + a(i+1)
      enddo
      END
