! want: a(:) = 3
! want: b(1) = 5
! k lives in COMMON /blk/: main sets it to 3, setk copies it into a and
! sets it to 5, and main reads it back into b(1); each activation had a
! k of its own (a(:) = 0 and b(1) = 3, in both executors)
      PROGRAM CSCALAR
      PARAMETER (n$proc = 4)
      REAL a(16), b(4)
      COMMON /blk/ k
      DISTRIBUTE a(BLOCK)
      k = 3
      call setk(a)
      b(1) = k
      END
      SUBROUTINE setk(a)
      REAL a(16)
      COMMON /blk/ k
      do i = 1, 16
        a(i) = k
      enddo
      k = 5
      END
