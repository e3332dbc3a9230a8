! m selects the element assigned: the ownership test itself reads it
! on every processor
! expect m missed it is a subscript or a loop index
      PROGRAM INDEX
      PARAMETER (n$proc = 4)
      REAL a(48), b(48)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 48
        b(i) = i * 0.5
      enddo
      do j = 1, 48
        m = 49 - j
        a(m) = b(j) * 2.0
      enddo
      END
