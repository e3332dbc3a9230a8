! one use is an assignment to a replicated array, which every
! processor executes
! expect t missed every processor executes a statement that uses it
      PROGRAM REPL
      PARAMETER (n$proc = 4)
      REAL a(48), b(48), r(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        a(j) = t + 1.0
        r(j) = t
      enddo
      do j = 1, 48
        a(j) = a(j) + r(j)
      enddo
      END
