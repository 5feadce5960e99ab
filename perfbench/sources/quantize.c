/* Quantization prologue fused before the GEMM (§7.3, Fig. 12a). */
void qgemm(long M, long N, long K, double A[M][K], double AQ[M][K],
           double B[K][N], double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long k = 0; k < K; k++)
      AQ[i][k] = quantize(A[i][k]);
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += AQ[i][k] * B[k][j];
}
