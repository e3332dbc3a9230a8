! B(1) is read by a DO bound before DISTRIBUTE B(BLOCK), and livedecomp
! did not count a loop bound as a use: the array was laid out BLOCK from
! the start, as if it had no live values, and the owner's B(7) = 0 was
! lost (MISMATCH B[6]: 7 != 0 at P = 4; found by FuzzRun)
      PROGRAM A
      PARAMETER (n$proc = 4)
      REAL B(20)
      do c = 0, B(1)
      enddo
      DISTRIBUTE B(BLOCK)
      B(7) = 0
      END
