! t is read at the top of the next iteration, before its assignment:
! the reader is the owner of another element
! expect t missed after the partition variable has changed
      PROGRAM CARRY
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      t = 0.0
      do j = 1, 48
        a(j) = t + 1.0
        t = b(j) * 2.0
      enddo
      END
