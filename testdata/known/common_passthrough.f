! want: b(4) = 5
! x is BLOCK in COMMON /blk/ in main; mid does not declare the block and
! calls leaf, which reads x(i+1) for mid's loop index i: mid knew no
! distribution for x, so leaf's delayed shift was dropped and the owner
! of b(4) read x(5) it never received (MISMATCH b[3]: NaN != 5)
      PROGRAM CPASS
      PARAMETER (n$proc = 4)
      REAL x(16), b(16)
      COMMON /blk/ x
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 16
        x(i) = i
      enddo
      call mid(b)
      END
      SUBROUTINE mid(b)
      REAL b(16)
      do i = 1, 15
        call leaf(b, i)
      enddo
      END
      SUBROUTINE leaf(b, i)
      REAL b(16), x(16)
      COMMON /blk/ x
      b(i) = x(i+1)
      END
