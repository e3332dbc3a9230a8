! every processor evaluates the IF condition
! expect t missed every processor executes a statement that uses it (line 13)
      PROGRAM COND
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        if (t .GT. 10.0) then
          a(j) = t
        endif
      enddo
      END
