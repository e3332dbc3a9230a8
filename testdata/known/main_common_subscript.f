! want: a(7) = 1
! listing 686dd1a8f3a28629d6512be0ff088634
! The main program has no callers, so an assignment indexed by a COMMON
! variable is guarded there: its constraint was once delayed out of the
! main program ("exports delayed constraint k ... to its callers") and
! the assignment left unguarded
      PROGRAM MCOMMON
      PARAMETER (n$proc = 4)
      REAL a(16)
      COMMON /c/ k
      DISTRIBUTE a(BLOCK)
      a(k+7) = 1.0
      END
