! error: A is assigned an element but is not a declared array
! A(2) = 0.0 names no declared array: F77 reads it as a statement
! function, outside the subset, and the compiler took it for an array
! element, so the program compiled and failed only when it ran
! (p0: A: unknown array A)
      PROGRAM UNDECL
      PARAMETER (n$proc = 4)
      REAL b(8)
      DISTRIBUTE b(BLOCK)
      do i = 1, 8
        b(i) = i
      enddo
      A(2) = 0.0
      END
