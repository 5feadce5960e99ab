/* C = A^T * B^T + C: both operands stored transposed. */
void gemm_tt(long M, long N, long K, double A[K][M], double B[N][K],
             double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[j][k];
}
