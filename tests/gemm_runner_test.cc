// Tests of the high-level runner: input validation, scalar edge cases
// (alpha/beta in {0, 1, negative}), and a parameterized property sweep of
// functional correctness across irregular shapes and option sets.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/reference.h"
#include "support/error.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

const CompiledKernel& defaultKernel() {
  static SwGemmCompiler compiler;
  static CompiledKernel kernel = compiler.compile(CodegenOptions{});
  return kernel;
}
const sunway::ArchConfig& arch() {
  static sunway::ArchConfig config;
  return config;
}

TEST(GemmRunner, RejectsWrongSpanSizes) {
  std::vector<double> a(10), b(10), c(10);
  GemmProblem problem{64, 64, 64, 1};
  EXPECT_THROW(
      runGemmFunctional(defaultKernel(), arch(), problem, a, b, c),
      sw::InternalError);
}

TEST(GemmRunner, RejectsBatchOnPlainKernel) {
  // A batch is user input, so asking an unbatched kernel for one is an
  // InputError, not an internal check failure.
  std::vector<double> a(2 * 64 * 64), b(2 * 64 * 64), c(2 * 64 * 64);
  GemmProblem problem{64, 64, 64, 2};
  EXPECT_THROW(
      runGemmFunctional(defaultKernel(), arch(), problem, a, b, c),
      sw::InputError);
}

struct ScalarCase {
  double alpha;
  double beta;
};

class ScalarEdges : public ::testing::TestWithParam<ScalarCase> {};

TEST_P(ScalarEdges, FunctionalMatchesReference) {
  const auto [alpha, beta] = GetParam();
  const std::int64_t m = 128, n = 96, k = 64;
  std::vector<double> a = randomMatrix(m * k, 1);
  std::vector<double> b = randomMatrix(k * n, 2);
  std::vector<double> c = randomMatrix(m * n, 3);
  std::vector<double> expected = c;
  GemmProblem problem{m, n, k, 1, alpha, beta};
  runGemmFunctional(defaultKernel(), arch(), problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, alpha,
                        beta);
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Scalars, ScalarEdges,
    ::testing::Values(ScalarCase{1.0, 1.0}, ScalarCase{0.0, 1.0},
                      ScalarCase{1.0, 0.0}, ScalarCase{0.0, 0.0},
                      ScalarCase{-2.5, 0.5}, ScalarCase{1e-8, 1e8}),
    [](const ::testing::TestParamInfo<ScalarCase>& info) {
      auto clean = [](double v) {
        std::string s = std::to_string(v);
        for (char& ch : s)
          if (ch == '.' || ch == '-' || ch == '+') ch = '_';
        return s;
      };
      return "a" + clean(info.param.alpha) + "_b" + clean(info.param.beta);
    });

struct SweepCase {
  std::int64_t m, n, k;
  bool useAsm;
  bool hideLatency;
};

class ShapeSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ShapeSweep, FunctionalMatchesReference) {
  const SweepCase& sweep = GetParam();
  CodegenOptions options;
  options.useAsm = sweep.useAsm;
  options.hideLatency = sweep.hideLatency;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  std::vector<double> a = randomMatrix(sweep.m * sweep.k, 11);
  std::vector<double> b = randomMatrix(sweep.k * sweep.n, 12);
  std::vector<double> c = randomMatrix(sweep.m * sweep.n, 13);
  std::vector<double> expected = c;
  GemmProblem problem{sweep.m, sweep.n, sweep.k, 1, 1.0, 1.0};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), sweep.m,
                        sweep.n, sweep.k, 1.0, 1.0);
  EXPECT_EQ(
      kernel::maxAbsDiff(c.data(), expected.data(), sweep.m * sweep.n), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    IrregularShapes, ShapeSweep,
    ::testing::Values(SweepCase{1, 1, 1, true, true},
                      SweepCase{7, 13, 5, true, true},
                      SweepCase{65, 129, 33, true, true},
                      SweepCase{512, 64, 256, true, true},
                      SweepCase{64, 512, 512, true, true},
                      SweepCase{100, 100, 100, false, true},
                      SweepCase{255, 257, 300, true, false},
                      SweepCase{513, 511, 257, true, true}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const SweepCase& s = info.param;
      return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
             std::to_string(s.k) + (s.useAsm ? "_asm" : "_naive") +
             (s.hideLatency ? "_hide" : "_nohide");
    });

TEST(GemmRunner, EstimateDoesNotTouchData) {
  // Estimation of a shape far too large to allocate must succeed.
  GemmProblem problem{15360, 15360, 15360, 1};
  rt::RunOutcome outcome = estimateGemm(defaultKernel(), arch(), problem);
  EXPECT_GT(outcome.gflops, 0.0);
  EXPECT_LT(outcome.gflops, arch().peakFlops() / 1e9);
}

TEST(GemmRunner, ResultsAreDeterministicAcrossRuns) {
  const std::int64_t m = 192, n = 128, k = 96;
  std::vector<double> a = randomMatrix(m * k, 21);
  std::vector<double> b = randomMatrix(k * n, 22);
  std::vector<double> c1 = randomMatrix(m * n, 23);
  std::vector<double> c2 = c1;
  GemmProblem problem{m, n, k, 1, 1.0, 1.0};
  runGemmFunctional(defaultKernel(), arch(), problem, a, b, c1);
  runGemmFunctional(defaultKernel(), arch(), problem, a, b, c2);
  EXPECT_EQ(kernel::maxAbsDiff(c1.data(), c2.data(), m * n), 0.0);
}

}  // namespace
}  // namespace sw::core
