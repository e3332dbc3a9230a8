! t is in COMMON and a callee rewrites it between the assignment and
! the use
! expect t missed it is a formal or in COMMON
      PROGRAM COMM
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      COMMON /blk/ t
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        t = b(j) * 2.0
        call bump
        a(j) = t + 1.0
      enddo
      END
      SUBROUTINE bump
      COMMON /blk/ t
      t = t + 1.0
      END
