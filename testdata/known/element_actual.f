! error: ELEMACT line 11: call leaf passes x(5), not a whole array, to the array formal y
! F77 passes y the storage from x(5) on; the executor passed the value
! of x(5), so every write to y was lost, in both executors alike
      PROGRAM ELEMACT
      PARAMETER (n$proc = 4)
      REAL x(16)
      DISTRIBUTE x(BLOCK)
      do i = 1, 16
        x(i) = i
      enddo
      call leaf(x(5))
      END
      SUBROUTINE leaf(y)
      REAL y(4)
      do i = 1, 4
        y(i) = 0
      enddo
      END
