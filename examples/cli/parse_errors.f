      PROGRAM MAIN
      DIMENSION A(100)
      DO I = 1, 100
        A(I) = 2.0 * I
      ENDDO
      WRITE(6,*) A(10)
      END
      SUBROUTINE BAD(X)
      X = ((1 *
      X = ((2 *
      X = ((3 *
      END
