! n is no multiple of P (blocks of 3, 3, 3 and 1); run at P = 16 > n the
! block is one cell and the shift an allgather
! expect applied loop i pipelined on x(i-2)
! expect applied loop i pipelined on x(i-1)
      PROGRAM RAG
      PARAMETER (n$proc = 4)
      REAL x(10)
      DISTRIBUTE x(BLOCK)
      do i = 3, 10
        x(i) = 0.5 * x(i-2) + x(i-1)
      enddo
      END
