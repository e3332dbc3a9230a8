! step broadcasts x(1) itself while its ownership constraint on i is
! delayed and the caller's i loop reduced: p1 never took part in the
! broadcast of x(1) after the update (MISMATCH x[1]: 2 != 3)
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(4)
      DISTRIBUTE x(BLOCK)
      do i = 1,2
        call step(x,i)
      enddo
      END
      SUBROUTINE step(x,i)
      REAL x(4)
      x(i) = x(1)+1
      END
