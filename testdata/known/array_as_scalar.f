! error: the array A is used as a scalar
! A = A(5) names the array A without a subscript, and A(A) = 0 then
! subscripts it by itself: Fortran 77 has no such statements, and the
! two executors read them each their own way (1(b)(xiii); the compiled
! run and the reference differ by 5 at P = 1 already)
      PROGRAM AAS
      PARAMETER (n$proc = 3)
      REAL A(22)
      DISTRIBUTE A(BLOCK)
      A = A(5)
      A(A) = 0
      END
