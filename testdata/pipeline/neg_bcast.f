! z is read back to front: its owner changes every iteration, and every
! processor takes part in that broadcast
! parent d9494343bb1d3d23415c6ea01ce9943b
! expect missed another message (a broadcast, an allgather or a shift that has to stay) is placed inside the loop
      PROGRAM BCAST
      PARAMETER (n$proc = 4)
      REAL x(24), z(24)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE z(BLOCK)
      do i = 2, 24
        x(i) = 0.5 * x(i-1) + z(25-i)
      enddo
      END
