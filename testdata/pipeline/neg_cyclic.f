! CYCLIC: every neighbour cell belongs to another processor
! parent 7c44a7b2f162426f7495ae088af67482
! expect missed the dimension is not BLOCK-distributed
      PROGRAM CYC
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(CYCLIC)
      do i = 2, 24
        x(i) = 0.5 * x(i-1) + 1.0
      enddo
      END
