! error: half line 17: COMMON /blk/ declares REAL x(8) where CSHAPE line 8 declares REAL x(16)
! main declares COMMON /blk/ x(16) and half declares x(8): the two
! named one storage by name but were partitioned by their own extents
! (MISMATCH x[2] at P = 4)
      PROGRAM CSHAPE
      PARAMETER (n$proc = 4)
      REAL x(16)
      COMMON /blk/ x
      DISTRIBUTE x(BLOCK)
      do i = 1, 16
        x(i) = i
      enddo
      call half
      END
      SUBROUTINE half
      REAL x(8)
      COMMON /blk/ x
      DISTRIBUTE x(BLOCK)
      do i = 1, 8
        x(i) = x(i) + 10
      enddo
      END
