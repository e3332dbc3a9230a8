! the inner loop starts at i: the row section it reads has no value
! before loop i
! parent c8786d929d4cf15d9a69f53b2546cbb9
! expect missed the section's other dimensions cannot be evaluated before the loop
      PROGRAM TRI
      PARAMETER (n$proc = 4)
      REAL a(16,16)
      DISTRIBUTE a(BLOCK,:)
      do i = 2, 16
        do j = i, 16
          a(i,j) = a(i,j) + 0.5 * a(i-1,j)
        enddo
      enddo
      END
