! the allgather for b(m) was hoisted above the loop, where m is not yet
! defined, and carried b(m) as its section (0 messages; a(1) read NaN):
! m is assigned between the message and the reference, so the message
! carries b's declared extent; the second nest assigns m in the outer
! loop's body, above the inner loop that reads it
      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(16), b(16), c(16,16)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(CYCLIC)
      DISTRIBUTE c(:,BLOCK)
      do j = 1, 15
        m = j + 1
        a(j) = b(m)
      enddo
      do k = 1, 15
        m = k + 1
        do j = 1, 16
          c(k,j) = b(m)
        enddo
      enddo
      END
