/* Batched GEMM (§3, Fig. 3): the batch loop stays outermost. */
void bgemm(long T, long M, long N, long K, double alpha, double beta,
           double A[T][M][K], double B[T][K][N], double C[T][M][N]) {
  for (long b = 0; b < T; b++)
    for (long i = 0; i < M; i++)
      for (long j = 0; j < N; j++)
        C[b][i][j] = beta * C[b][i][j];
  for (long b = 0; b < T; b++)
    for (long i = 0; i < M; i++)
      for (long j = 0; j < N; j++)
        for (long k = 0; k < K; k++)
          C[b][i][j] = C[b][i][j] + alpha * A[b][i][k] * B[b][k][j];
}
