/* ReLU activation epilogue fused after the GEMM (§7.3, Fig. 12b). */
void gemm_relu(long M, long N, long K, double A[M][K], double B[K][N],
               double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = relu(C[i][j]);
}
