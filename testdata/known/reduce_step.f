! a loop with a non-unit step keeps its bounds, so every processor ran
! every iteration of a recognised reduction and globalsum added P
! copies (64 where the reference has 16)
      PROGRAM REDSTEP
      PARAMETER (n$proc = 4)
      REAL X(8)
      DISTRIBUTE X(BLOCK)
      do i = 1, 8
        X(i) = i
      enddo
      do i = 1, 7, 2
        s = s + X(i)
      enddo
      X(1) = s
      END
