! error: DISTRIBUTE X under the IF at line 11
! the layout after the IF was the branch's whichever edge ran: the loop
! was compiled for CYCLIC although the other edge arrives BLOCK
! (X[1]: 2 != 1 under every strategy at every remap level)
      PROGRAM DISTIF
      PARAMETER (n$proc = 4)
      REAL X(16)
      DISTRIBUTE X(BLOCK)
      m = 1
      X(1) = 0
      if (m .GT. 0) then
        DISTRIBUTE X(CYCLIC)
      endif
      do i = 2, 16
        X(i) = X(i-1) + 1
      enddo
      END
