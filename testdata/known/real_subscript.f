! error: subscript 1 of the distributed array a reads the REAL scalar x
! a REAL loop index in a distributed subscript made the broadcast's root
! (x - 1) / 8 a floating-point division: 0.5 rounds to 1, and a
! processor that does not own a(x) broadcast its copy over the owner's
      PROGRAM REALSUB
      PARAMETER (n$proc = 4)
      REAL a(32), b(32)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 32
        a(i) = a(i) + 10
      enddo
      do x = 1, 8
        b(1) = b(1) + a(x)
      enddo
      END
