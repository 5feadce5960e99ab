// Frontend tests: lexing, parsing, and GEMM pattern recognition over the
// naive C programs of §2.3 / Fig.2a / Fig.12, including rejection of
// non-GEMM inputs via the dependence analysis.
#include <gtest/gtest.h>

#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "frontend/pattern.h"
#include "support/error.h"

namespace sw::frontend {
namespace {

constexpr const char* kPlainGemm = R"(
void gemm(long M, long N, long K, double alpha, double beta,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = beta * C[i][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
)";

TEST(Lexer, TokenizesGemm) {
  auto tokens = tokenize(kPlainGemm);
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
  int fors = 0;
  for (const Token& t : tokens)
    if (t.kind == TokenKind::kFor) ++fors;
  EXPECT_EQ(fors, 5);
}

TEST(Lexer, CommentsAndCompoundOperators) {
  auto tokens = tokenize("a += b; // line\n c *= d; /* block */ e++ <=");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kPlusAssign),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kStarAssign),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kPlusPlus),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kLessEqual),
            kinds.end());
}

TEST(Lexer, RejectsUnknownCharacters) {
  EXPECT_THROW(tokenize("a # b"), sw::InputError);
}

TEST(Parser, ParsesFunctionShape) {
  FunctionDecl fn = parseFunction(kPlainGemm);
  EXPECT_EQ(fn.name, "gemm");
  ASSERT_EQ(fn.params.size(), 8u);
  EXPECT_EQ(fn.params[0].type, ParamDecl::Type::kLong);
  EXPECT_EQ(fn.params[3].type, ParamDecl::Type::kDouble);
  EXPECT_EQ(fn.params[5].type, ParamDecl::Type::kDoubleArray);
  EXPECT_EQ(fn.params[5].dims, (std::vector<std::string>{"M", "K"}));
}

TEST(Parser, DesugarsPlusAssign) {
  FunctionDecl fn = parseFunction(R"(
void f(long N, double A[N][N]) {
  for (long i = 0; i < N; i++)
    for (long j = 0; j < N; j++)
      A[i][j] += A[i][j];
})");
  // Reaching here without an exception means += desugared into an Add.
  const Stmt* block = fn.body.get();
  ASSERT_EQ(block->kind, StmtKind::kBlock);
}

TEST(Parser, RejectsNonZeroLowerBound) {
  EXPECT_THROW(parseFunction(R"(
void f(long N, double A[N]) {
  for (long i = 1; i < N; i++) A[i] = A[i];
})"),
               sw::InputError);
}

TEST(Parser, RejectsNonUnitStride) {
  EXPECT_THROW(parseFunction(R"(
void f(long N, double A[N]) {
  for (long i = 0; i < N; i += 2) A[i] = A[i];
})"),
               sw::InputError);
}

TEST(Pattern, RecognisesPlainGemm) {
  GemmPatternInfo info = analyzeGemmSource(kPlainGemm);
  EXPECT_EQ(info.functionName, "gemm");
  EXPECT_FALSE(info.batched);
  EXPECT_EQ(info.fusion, FusionPattern::kNone);
  EXPECT_EQ(info.arrayA, "A");
  EXPECT_EQ(info.arrayB, "B");
  EXPECT_EQ(info.arrayC, "C");
  EXPECT_EQ(info.paramM, "M");
  EXPECT_EQ(info.paramN, "N");
  EXPECT_EQ(info.paramK, "K");
  EXPECT_EQ(info.alphaVar, "alpha");
  EXPECT_EQ(info.betaVar, "beta");
  EXPECT_TRUE(info.hasBetaScale);
  EXPECT_EQ(info.statements.size(), 2u);
  // The verdict on (i, j, k): i and j carry nothing, k the accumulation.
  EXPECT_EQ(info.coincident, (std::vector<bool>{true, true, false}));
  EXPECT_TRUE(info.tilable);
}

TEST(Pattern, RecognisesMinimalGemmWithPlusAssign) {
  GemmPatternInfo info = analyzeGemmSource(R"(
void mm(long M, long N, long K, double A[M][K], double B[K][N],
        double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
})");
  EXPECT_TRUE(info.alphaVar.empty());
  EXPECT_FALSE(info.hasBetaScale);
}

TEST(Pattern, RecognisesBatchedGemm) {
  GemmPatternInfo info = analyzeGemmSource(R"(
void bmm(long T, long M, long N, long K, double A[T][M][K],
         double B[T][K][N], double C[T][M][N]) {
  for (long b = 0; b < T; b++)
    for (long i = 0; i < M; i++)
      for (long j = 0; j < N; j++)
        for (long k = 0; k < K; k++)
          C[b][i][j] += A[b][i][k] * B[b][k][j];
})");
  EXPECT_TRUE(info.batched);
  EXPECT_EQ(info.paramBatch, "T");
  EXPECT_EQ(info.paramM, "M");
  EXPECT_EQ(info.coincident, (std::vector<bool>{true, true, true, false}));
  EXPECT_TRUE(info.tilable);
}

TEST(Pattern, RecognisesPrologueFusion) {
  GemmPatternInfo info = analyzeGemmSource(R"(
void qgemm(long M, long N, long K, double A[M][K], double AQ[M][K],
           double B[K][N], double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long k = 0; k < K; k++)
      AQ[i][k] = quantize(A[i][k]);
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += AQ[i][k] * B[k][j];
})");
  EXPECT_EQ(info.fusion, FusionPattern::kPrologueQuantize);
  // The DMA source is the original array; quantization is recomputed on
  // the SPM tile (Fig.12a).
  EXPECT_EQ(info.arrayA, "A");
}

TEST(Pattern, RecognisesEpilogueFusion) {
  GemmPatternInfo info = analyzeGemmSource(R"(
void gemm_relu(long M, long N, long K, double A[M][K], double B[K][N],
               double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = relu(C[i][j]);
})");
  EXPECT_EQ(info.fusion, FusionPattern::kEpilogueRelu);
}

TEST(Pattern, AcceptsFmaxEpilogue) {
  GemmPatternInfo info = analyzeGemmSource(R"(
void f(long M, long N, long K, double A[M][K], double B[K][N],
       double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = fmax(C[i][j], 0.0);
})");
  EXPECT_EQ(info.fusion, FusionPattern::kEpilogueRelu);
}

TEST(Pattern, RejectsNonGemmComputation) {
  EXPECT_THROW(analyzeGemmSource(R"(
void f(long N, double A[N][N]) {
  for (long i = 0; i < N; i++)
    for (long j = 0; j < N; j++)
      A[i][j] = A[i][j] + 1.0;
})"),
               sw::InputError);
}

TEST(Pattern, RecognisesTransposedOperands) {
  // A[k][i] selects the A^T variant; B[j][k] selects B^T (§2: "other GEMM
  // variants share the same structure with DGEMM").
  GemmPatternInfo info = analyzeGemmSource(R"(
void f(long M, long N, long K, double A[K][M], double B[K][N],
       double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[k][j];
})");
  EXPECT_TRUE(info.transposeA);
  EXPECT_FALSE(info.transposeB);

  GemmPatternInfo both = analyzeGemmSource(R"(
void g(long M, long N, long K, double A[K][M], double B[N][K],
       double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[j][k];
})");
  EXPECT_TRUE(both.transposeA);
  EXPECT_TRUE(both.transposeB);
}

TEST(Pattern, RejectsTransposedDeclarationMismatch) {
  // A^T form with an A declared M x K is inconsistent.
  EXPECT_THROW(analyzeGemmSource(R"(
void f(long M, long N, long K, double A[M][K], double B[K][N],
       double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[k][j];
})"),
               sw::InputError);
}

TEST(Pattern, RejectsInconsistentArrayDeclaration) {
  EXPECT_THROW(analyzeGemmSource(R"(
void f(long M, long N, long K, double A[M][K], double B[N][K],
       double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
})"),
               sw::InputError);
}

TEST(Pattern, RejectsStrayStatement) {
  EXPECT_THROW(analyzeGemmSource(R"(
void f(long M, long N, long K, double A[M][K], double B[K][N],
       double C[M][N], double D[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      D[i][j] = D[i][j] + D[i][j];
})"),
               sw::InputError);
}

/// The InputError message analyzeGemmSource throws on `source`, or "" when
/// it accepts it.
std::string rejection(const std::string& source) {
  try {
    (void)analyzeGemmSource(source);
  } catch (const sw::InputError& e) {
    return e.what();
  }
  return "";
}

TEST(Pattern, RejectsTheOutputReadAsAnOperand) {
  // The dependence check, not the subscript match, rejects these: reading
  // C as A (C[i][k]) makes j carry a dependence, reading it as B (C[k][j])
  // makes i carry one.  The arrays are undeclared, so no shape check runs
  // first.  Two reads of one input array carry nothing.
  const auto nest = [](const std::string& product) {
    return "void f(long M, long N, long K) {\n"
           "  for (long i = 0; i < M; i++)\n"
           "    for (long j = 0; j < N; j++)\n"
           "      for (long k = 0; k < K; k++)\n"
           "        C[i][j] = C[i][j] + " +
           product + ";\n}\n";
  };
  const std::string notParallel = "the GEMM nest's outer loops are not parallel";
  EXPECT_NE(rejection(nest("C[i][k] * B[k][j]")).find(notParallel),
            std::string::npos);
  EXPECT_NE(rejection(nest("A[i][k] * C[k][j]")).find(notParallel),
            std::string::npos);
  const GemmPatternInfo info = analyzeGemmSource(nest("A[i][k] * A[k][j]"));
  EXPECT_EQ(info.arrayA, "A");
  EXPECT_EQ(info.arrayB, "A");
  EXPECT_EQ(info.coincident, (std::vector<bool>{true, true, false}));
  EXPECT_TRUE(info.tilable);
}

}  // namespace
}  // namespace sw::frontend
