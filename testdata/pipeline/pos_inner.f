! 2-D, the partitioned loop innermost (ADI's column phase): a fine-grain
! wavefront, one boundary cell per column per step
! expect applied loop i pipelined on a(i-1)
      PROGRAM INNER
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do t = 1, 2
        do j = 1, 12
          do i = 2, 16
            a(i,j) = a(i,j) + 0.5 * a(i-1,j)
          enddo
        enddo
      enddo
      END
