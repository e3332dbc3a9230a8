! so does a loop over a CYCLIC(k) array (544 where the reference has 136)
      PROGRAM REDCYCK
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(CYCLIC(2))
      do i = 1, 16
        X(i) = i
      enddo
      do i = 1, 16
        s = MAX(s, X(i))
        t = t + X(i)
      enddo
      X(1) = s + t
      END
