// The printed athread C, pinned byte for byte: the fnv1a64 digests of the
// CPE and MPE sources of every soak-catalog kernel, the quickstart example,
// one source compile per frontend pattern and the edge-tile variants.
// compile_determinism_test shows that equal requests print equal text and
// printer_test checks what the text contains; this test fails on any
// change to the text at all, so a change to the printer or to the string
// helpers it prints with must either keep every byte or re-record the
// digests below on purpose.  A failure names the kernel and prints its
// new digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "service/soak.h"
#include "support/digest.h"

namespace sw::core {
namespace {

struct PinnedSources {
  std::uint64_t cpe;
  std::uint64_t mpe;
};

void expectPinned(const std::string& what, const CompiledKernel& kernel,
                  const PinnedSources& pinned) {
  const std::uint64_t cpe = fnv1a64(kernel.cpeSource);
  const std::uint64_t mpe = fnv1a64(kernel.mpeSource);
  EXPECT_TRUE(cpe == pinned.cpe && mpe == pinned.mpe)
      << what << " now prints {0x" << digestHex(cpe) << "ull, 0x"
      << digestHex(mpe) << "ull}";
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- the 96 soak-catalog kernels -----------------------------------------

constexpr PinnedSources kCatalog[] = {
    {0x2e98de1d5189a0deull, 0x903be302f3920107ull},  // 0
    {0x992a4c281c07d688ull, 0x903be302f3920107ull},  // 1
    {0x9500e2452b5b58c6ull, 0x903be302f3920107ull},  // 2
    {0x4f85f833db1b7252ull, 0x903be302f3920107ull},  // 3
    {0x7095a424fe843a80ull, 0x903be302f3920107ull},  // 4
    {0xbf489be5bb554634ull, 0x903be302f3920107ull},  // 5
    {0x2e98de1d5189a0deull, 0x903be302f3920107ull},  // 6
    {0x992a4c281c07d688ull, 0x903be302f3920107ull},  // 7
    {0xb8d690695113fb06ull, 0x903be302f3920107ull},  // 8
    {0x4f85f833db1b7252ull, 0x903be302f3920107ull},  // 9
    {0x7095a424fe843a80ull, 0x903be302f3920107ull},  // 10
    {0xbf489be5bb554634ull, 0x903be302f3920107ull},  // 11
    {0x46c36a036017c6ddull, 0x903be302f3920107ull},  // 12
    {0x051bfe0ef73dc3e8ull, 0x903be302f3920107ull},  // 13
    {0xdc0bfd39f5d87b2aull, 0x903be302f3920107ull},  // 14
    {0x39e50bdfcd9fdd02ull, 0x903be302f3920107ull},  // 15
    {0x269295f4b9834781ull, 0x903be302f3920107ull},  // 16
    {0x59f12ed62ea4c3ecull, 0x903be302f3920107ull},  // 17
    {0x46c36a036017c6ddull, 0x903be302f3920107ull},  // 18
    {0x051bfe0ef73dc3e8ull, 0x903be302f3920107ull},  // 19
    {0xb0b71783ee846f21ull, 0x903be302f3920107ull},  // 20
    {0x39e50bdfcd9fdd02ull, 0x903be302f3920107ull},  // 21
    {0x269295f4b9834781ull, 0x903be302f3920107ull},  // 22
    {0x59f12ed62ea4c3ecull, 0x903be302f3920107ull},  // 23
    {0xad379727042329cfull, 0xe8caa89c72deaa63ull},  // 24
    {0xf28d0e2dfcbb02d5ull, 0xe8caa89c72deaa63ull},  // 25
    {0x385d2a887f505ee3ull, 0xe8caa89c72deaa63ull},  // 26
    {0xb207ba151b4c4193ull, 0xe8caa89c72deaa63ull},  // 27
    {0x0ee57a949faaa05dull, 0xe8caa89c72deaa63ull},  // 28
    {0x156b9f1e3e82a301ull, 0xe8caa89c72deaa63ull},  // 29
    {0xad379727042329cfull, 0xe8caa89c72deaa63ull},  // 30
    {0xf28d0e2dfcbb02d5ull, 0xe8caa89c72deaa63ull},  // 31
    {0xdcac686ad2e629e3ull, 0xe8caa89c72deaa63ull},  // 32
    {0xb207ba151b4c4193ull, 0xe8caa89c72deaa63ull},  // 33
    {0x0ee57a949faaa05dull, 0xe8caa89c72deaa63ull},  // 34
    {0x156b9f1e3e82a301ull, 0xe8caa89c72deaa63ull},  // 35
    {0x406eb2eeb555cbc6ull, 0xe8caa89c72deaa63ull},  // 36
    {0x01a7ed1fb19d922dull, 0xe8caa89c72deaa63ull},  // 37
    {0xb709f4bbb4188d97ull, 0xe8caa89c72deaa63ull},  // 38
    {0xc30a0250eff0a08bull, 0xe8caa89c72deaa63ull},  // 39
    {0xbde8b0d0b65e5258ull, 0xe8caa89c72deaa63ull},  // 40
    {0x032da0f9ebb30df1ull, 0xe8caa89c72deaa63ull},  // 41
    {0x406eb2eeb555cbc6ull, 0xe8caa89c72deaa63ull},  // 42
    {0x01a7ed1fb19d922dull, 0xe8caa89c72deaa63ull},  // 43
    {0x367d9b3c713daf24ull, 0xe8caa89c72deaa63ull},  // 44
    {0xc30a0250eff0a08bull, 0xe8caa89c72deaa63ull},  // 45
    {0xbde8b0d0b65e5258ull, 0xe8caa89c72deaa63ull},  // 46
    {0x032da0f9ebb30df1ull, 0xe8caa89c72deaa63ull},  // 47
    {0xb55542c50e782f1full, 0xfcd8c44445da09aeull},  // 48
    {0x4d2e6f1a0944856full, 0xfcd8c44445da09aeull},  // 49
    {0x017a31a4fbcfcdb1ull, 0xfcd8c44445da09aeull},  // 50
    {0xb9c209ad144293ebull, 0xfcd8c44445da09aeull},  // 51
    {0x868335a39be09e9full, 0xfcd8c44445da09aeull},  // 52
    {0xdec8b6451d5de6c3ull, 0xfcd8c44445da09aeull},  // 53
    {0xb55542c50e782f1full, 0xfcd8c44445da09aeull},  // 54
    {0x4d2e6f1a0944856full, 0xfcd8c44445da09aeull},  // 55
    {0xd743b6631c35fdb1ull, 0xfcd8c44445da09aeull},  // 56
    {0xb9c209ad144293ebull, 0xfcd8c44445da09aeull},  // 57
    {0x868335a39be09e9full, 0xfcd8c44445da09aeull},  // 58
    {0xdec8b6451d5de6c3ull, 0xfcd8c44445da09aeull},  // 59
    {0xad77a42dc7ef5fdcull, 0xfcd8c44445da09aeull},  // 60
    {0x1f6dd3b6cc926c93ull, 0xfcd8c44445da09aeull},  // 61
    {0xcf54f827db4565c3ull, 0xfcd8c44445da09aeull},  // 62
    {0x36e84369203decefull, 0xfcd8c44445da09aeull},  // 63
    {0x88635b65d6b1f116ull, 0xfcd8c44445da09aeull},  // 64
    {0x055521ec7b29eebfull, 0xfcd8c44445da09aeull},  // 65
    {0xad77a42dc7ef5fdcull, 0xfcd8c44445da09aeull},  // 66
    {0x1f6dd3b6cc926c93ull, 0xfcd8c44445da09aeull},  // 67
    {0x8cf6dc9d2833f8feull, 0xfcd8c44445da09aeull},  // 68
    {0x36e84369203decefull, 0xfcd8c44445da09aeull},  // 69
    {0x88635b65d6b1f116ull, 0xfcd8c44445da09aeull},  // 70
    {0x055521ec7b29eebfull, 0xfcd8c44445da09aeull},  // 71
    {0xdbc8cbd9ba8789ccull, 0xe29da67e87545e38ull},  // 72
    {0x7b47235c513d468aull, 0xe29da67e87545e38ull},  // 73
    {0xfa77cf8e1ebd4e20ull, 0xe29da67e87545e38ull},  // 74
    {0x9ad8778da4c0d988ull, 0xe29da67e87545e38ull},  // 75
    {0x7ff8dff0f9e59a6aull, 0xe29da67e87545e38ull},  // 76
    {0x4cf8569a70ee716aull, 0xe29da67e87545e38ull},  // 77
    {0xdbc8cbd9ba8789ccull, 0xe29da67e87545e38ull},  // 78
    {0x7b47235c513d468aull, 0xe29da67e87545e38ull},  // 79
    {0xb51398ebd9ca7840ull, 0xe29da67e87545e38ull},  // 80
    {0x9ad8778da4c0d988ull, 0xe29da67e87545e38ull},  // 81
    {0x7ff8dff0f9e59a6aull, 0xe29da67e87545e38ull},  // 82
    {0x4cf8569a70ee716aull, 0xe29da67e87545e38ull},  // 83
    {0xad94e45a10ce6529ull, 0xe29da67e87545e38ull},  // 84
    {0xd576164839e6dd9eull, 0xe29da67e87545e38ull},  // 85
    {0xfda8ebe01e569642ull, 0xe29da67e87545e38ull},  // 86
    {0x893d024a8e3a3b9cull, 0xe29da67e87545e38ull},  // 87
    {0xb058089308e1825full, 0xe29da67e87545e38ull},  // 88
    {0xe03b61919db86eaeull, 0xe29da67e87545e38ull},  // 89
    {0xad94e45a10ce6529ull, 0xe29da67e87545e38ull},  // 90
    {0xd576164839e6dd9eull, 0xe29da67e87545e38ull},  // 91
    {0x3c5e5da8d6736ca7ull, 0xe29da67e87545e38ull},  // 92
    {0x893d024a8e3a3b9cull, 0xe29da67e87545e38ull},  // 93
    {0xb058089308e1825full, 0xe29da67e87545e38ull},  // 94
    {0xe03b61919db86eaeull, 0xe29da67e87545e38ull},  // 95
};

TEST(SourceDigest, SoakCatalog) {
  const SwGemmCompiler compiler;
  const std::vector<CodegenOptions> catalog = service::soakCatalog(96);
  ASSERT_EQ(catalog.size(), std::size(kCatalog));
  for (std::size_t i = 0; i < catalog.size(); ++i)
    expectPinned("soakCatalog(96)[" + std::to_string(i) + "]",
                 compiler.compile(catalog[i]), kCatalog[i]);
}

// --- source compiles -------------------------------------------------------

TEST(SourceDigest, QuickstartExample) {
  const std::string source = readFile(std::filesystem::path(SW_SOURCE_DIR) /
                                      "examples" / "quickstart_gemm.c");
  ASSERT_FALSE(source.empty());
  expectPinned("examples/quickstart_gemm.c",
               SwGemmCompiler().compileSource(source),
               {0xf95e96fa7c276a46ull, 0xe909face681ede67ull});
}

struct PatternSource {
  const char* pattern;
  const char* source;
  PinnedSources pinned;
};

const PatternSource kPatterns[] = {
    {"batched", R"(
void bgemm(long T, long M, long N, long K,
           double A[T][M][K], double B[T][K][N], double C[T][M][N]) {
  for (long b = 0; b < T; b++)
    for (long i = 0; i < M; i++)
      for (long j = 0; j < N; j++)
        for (long k = 0; k < K; k++)
          C[b][i][j] += A[b][i][k] * B[b][k][j];
}
)",
     {0xf8dcb5dfe0bcc633ull, 0xa4d9c90fb11e63ccull}},
    {"transposed", R"(
void gemm_tn(long M, long N, long K, double A[K][M], double B[K][N],
             double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[k][j];
}
)",
     {0x31d8b6cdfd8af79eull, 0x96bc1766f1a3b8ebull}},
    {"quantize prologue", R"(
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
)",
     {0x6ea20e1b2401da1eull, 0x25f78528d6ffd283ull}},
    {"ReLU epilogue", R"(
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
)",
     {0x270268a3708628c9ull, 0x3d43b728bc0a97a3ull}},
};

TEST(SourceDigest, OneSourceCompilePerFrontendPattern) {
  const SwGemmCompiler compiler;
  for (const PatternSource& p : kPatterns)
    expectPinned(p.pattern, compiler.compileSource(p.source), p.pinned);
}

// --- edge-tile variants ----------------------------------------------------

TEST(SourceDigest, EdgeTileVariants) {
  struct Edge {
    std::int64_t tileM, tileN, tileK;
    PinnedSources pinned;
  };
  const Edge edges[] = {
      {64, 64, 32, {0xa310092e16b7e499ull, 0x903be302f3920107ull}},
      {16, 16, 16, {0xa4a685af2d7bcf33ull, 0x903be302f3920107ull}},
      {32, 16, 16, {0x9ce2c88585a40913ull, 0x903be302f3920107ull}},
  };
  const SwGemmCompiler compiler;
  for (const Edge& e : edges) {
    CodegenOptions options;
    options.edgeTiles = true;
    options.tileM = e.tileM;
    options.tileN = e.tileN;
    options.tileK = e.tileK;
    expectPinned("edge " + std::to_string(e.tileM) + "x" +
                     std::to_string(e.tileN) + "x" + std::to_string(e.tileK),
                 compiler.compile(options), e.pinned);
  }
}

}  // namespace
}  // namespace sw::core
