! 2-D, the partitioned loop outermost: one message per boundary carries
! the whole row section the inner loop reads
! expect applied loop i pipelined on a(i-1)
      PROGRAM OUTER
      PARAMETER (n$proc = 4)
      REAL a(16,12)
      DISTRIBUTE a(BLOCK,:)
      do i = 2, 16
        do j = 2, 11
          a(i,j) = a(i,j) + 0.5 * a(i-1,j)
        enddo
      enddo
      END
