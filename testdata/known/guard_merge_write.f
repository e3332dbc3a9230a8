! want: b(1) = 1
! want: b(2) = 2
! The two IFs of each pair print alike, and the call in the first sets
! the scalar both test to 0: dec through its formal, decm through
! COMMON /blk/. F77 skips the second body of each pair, so one test for
! both bodies would set b(1) to 5 and b(2) to 6.
      PROGRAM GUARDW
      PARAMETER (n$proc = 4)
      REAL a(16), b(4)
      COMMON /blk/ m
      DISTRIBUTE a(BLOCK)
      do i = 1, 16
        a(i) = i
      enddo
      b(1) = 1
      b(2) = 2
      k = 1
      m = 1
      if (k .GT. 0) then
        call dec(k)
      endif
      if (k .GT. 0) then
        b(1) = 5
      endif
      if (m .GT. 0) then
        call decm(a)
      endif
      if (m .GT. 0) then
        b(2) = 6
      endif
      END
      SUBROUTINE dec(j)
      j = j - 1
      END
      SUBROUTINE decm(a)
      REAL a(16)
      COMMON /blk/ m
      do i = 1, 16
        a(i) = a(i) + m
      enddo
      m = m - 1
      END
