! a recurrence carried by a loop that may RETURN: the loop's bounds were
! reduced and the shift sent around it, so only the processor running
! i = 8 returned and the one after it waited for a send that never came
! (deadlock); the loop now runs every iteration on every processor and
! its shift stays inside it
      PROGRAM RETPIPE
      PARAMETER (n$proc = 4)
      REAL x(24)
      DISTRIBUTE x(BLOCK)
      do i = 1, 24
        x(i) = i
      enddo
      call f(x)
      END
      SUBROUTINE f(x)
      REAL x(24)
      do i = 2, 24
        x(i) = 0.5 * x(i-1) + 1.0
        if (i .EQ. 8) return
      enddo
      END
