! the inner loop runs downwards: a section built from its bounds in
! source order was x(8:1,..), empty, so no message was sent
! (MISMATCH y[6]: NaN != 7)
      PROGRAM DOWNSEC
      PARAMETER (n$proc = 4)
      REAL x(8,24), y(8,24)
      DISTRIBUTE x(:,BLOCK)
      DISTRIBUTE y(:,BLOCK)
      do j = 1, 24
        do i = 1, 8
          x(i,j) = i + j
        enddo
      enddo
      do j = 2, 24
        do i = 8, 1, -1
          y(i,j) = x(i,j-1)
        enddo
      enddo
      END
