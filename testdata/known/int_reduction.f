! want: r(1) = 0
! want: r(2) = 8
! An INTEGER accumulator with a REAL term is no parallel sum: F77
! truncates k + a(i) at every step, so k = k + 0.5 over eight elements
! leaves 0, where the reduced loop's partial sums left 4; an INTEGER
! term still sums in parallel
      PROGRAM INTRED
      PARAMETER (n$proc = 4)
      REAL a(8), r(2)
      INTEGER m(8)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE m(BLOCK)
      do i = 1, 8
        a(i) = 0.5
        m(i) = 1
      enddo
      k = 0
      do i = 1, 8
        k = k + a(i)
      enddo
      j = 0
      do i = 1, 8
        j = j + m(i)
      enddo
      r(1) = k
      r(2) = j
      END
