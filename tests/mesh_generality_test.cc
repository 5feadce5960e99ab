// Generality tests: the pipeline, simulator and runner are parameterised
// by the ArchConfig — nothing is hard-coded to the 8x8 mesh.  A 4x4 mesh
// with strip factor 4 must produce bit-exact results too, also when it
// takes turns on the mesh arenas with other shapes, and combined option
// sets (batched + fused + transposed) must compose.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/microkernel.h"
#include "kernel/reference.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

TEST(MeshGenerality, MeshShapesTakeTurnsOnArenasBitExact) {
  // Runs lease their fiber stacks and SPM from one process-wide pool of
  // arenas, grown when a mesh needs more CPEs or more SPM.  First in this
  // file, so the pool starts empty: the small-SPM mesh maps one arena,
  // the 4x4 mesh grows its SPM, and then the three shapes take turns on
  // it.  Every run repeats its shape's first run bit for bit.
  struct Case {
    sunway::ArchConfig arch;
    CodegenOptions options;
    GemmProblem problem;
  };
  std::vector<Case> cases(3);
  cases[0].arch.spmBytes = 48 * 1024;
  cases[0].options.tileM = 32;
  cases[0].options.tileN = 32;
  cases[0].options.tileK = 16;
  cases[0].options.edgeTiles = true;
  cases[0].problem = GemmProblem{100, 70, 40, 1, 1.5, 0.5};
  cases[1].arch.meshRows = 4;
  cases[1].arch.meshCols = 4;
  cases[1].options.stripFactor = 4;
  cases[1].problem = GemmProblem{256, 256, 128, 1, 1.0, 1.0};
  cases[2].options.edgeTiles = true;
  cases[2].problem = GemmProblem{150, 100, 96, 1, 1.25, 0.5};

  struct Run {
    std::vector<double> c;
    sunway::SimTime time = 0;
    sunway::CpeCounters counters;
  };
  std::vector<Run> first;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& test = cases[i];
      const CompiledKernel kernel =
          SwGemmCompiler(test.arch).compile(test.options);
      const GemmProblem& p = test.problem;
      const std::vector<double> a =
          randomMatrix(p.m * p.k, 10 + static_cast<unsigned>(i));
      const std::vector<double> b =
          randomMatrix(p.k * p.n, 20 + static_cast<unsigned>(i));
      Run run;
      run.c = randomMatrix(p.m * p.n, 30 + static_cast<unsigned>(i));
      const rt::RunOutcome outcome =
          runGemmFunctional(kernel, test.arch, p, a, b, run.c);
      run.time = outcome.time;
      run.counters = outcome.counters;
      if (round == 0) {
        std::vector<double> expected =
            randomMatrix(p.m * p.n, 30 + static_cast<unsigned>(i));
        kernel::referenceGemm(expected.data(), a.data(), b.data(), p.m, p.n,
                              p.k, p.alpha, p.beta, test.options.tileK);
        EXPECT_EQ(kernel::maxAbsDiff(run.c.data(), expected.data(),
                                     p.m * p.n),
                  0.0)
            << "case " << i;
        first.push_back(std::move(run));
        continue;
      }
      SCOPED_TRACE(testing::Message() << "round " << round << " case " << i);
      EXPECT_EQ(run.c, first[i].c);
      EXPECT_EQ(run.time, first[i].time);
      EXPECT_TRUE(run.counters == first[i].counters);
    }
  }
}

TEST(MeshGenerality, FourByFourMeshRunsBitExact) {
  sunway::ArchConfig arch;
  arch.meshRows = 4;
  arch.meshCols = 4;
  CodegenOptions options;
  options.stripFactor = 4;  // §3.2: strip factor = mesh width

  SwGemmCompiler compiler(arch);
  CompiledKernel kernel = compiler.compile(options);
  // Mesh tile is 256x256; K unit is 4*32 = 128.
  EXPECT_NE(kernel.cpeSource.find("M/256"), std::string::npos);

  const std::int64_t m = 256, n = 256, k = 128;
  std::vector<double> a = randomMatrix(m * k, 1);
  std::vector<double> b = randomMatrix(k * n, 2);
  std::vector<double> c = randomMatrix(m * n, 3);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, 1.0, 1.0};
  rt::RunOutcome outcome =
      runGemmFunctional(kernel, arch, problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, 1.0,
                        1.0);
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0);
  // 16 CPEs x (k/128) outer x 4 rounds of micro-kernels.
  EXPECT_EQ(outcome.counters.microKernelCalls, 16 * (k / 128) * 4);
}

TEST(MeshGenerality, MismatchedStripFactorIsRejected) {
  sunway::ArchConfig arch;  // 8x8
  CodegenOptions options;
  options.stripFactor = 4;
  SwGemmCompiler compiler(arch);
  EXPECT_THROW(compiler.compile(options), sw::Error);
}

TEST(MeshGenerality, BatchedFusedTransposedCompose) {
  // All orthogonal options at once: batched, epilogue fusion, A^T.
  CodegenOptions options;
  options.batched = true;
  options.fusion = FusionKind::kEpilogueRelu;
  options.transposeA = true;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t batch = 2, m = 512, n = 512, k = 256;
  std::vector<double> a = randomMatrix(batch * m * k, 11);  // batch of K x M
  std::vector<double> b = randomMatrix(batch * k * n, 12);
  std::vector<double> c = randomMatrix(batch * m * n, 13);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, batch, 1.5, 0.25};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);

  for (std::int64_t bi = 0; bi < batch; ++bi) {
    std::vector<double> aOp(static_cast<std::size_t>(m * k));
    kernel::tileTranspose(aOp.data(), a.data() + bi * k * m, k, m);
    kernel::referenceGemm(expected.data() + bi * m * n, aOp.data(),
                          b.data() + bi * k * n, m, n, k, problem.alpha,
                          problem.beta, 32, nullptr,
                          [](double v) { return v > 0.0 ? v : 0.0; });
  }
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), batch * m * n),
            0.0);
}

TEST(MeshGenerality, PrologueAndBatchCompose) {
  CodegenOptions options;
  options.batched = true;
  options.fusion = FusionKind::kPrologueQuantize;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t batch = 2, m = 512, n = 512, k = 256;
  std::vector<double> a = randomMatrix(batch * m * k, 21);
  std::vector<double> b = randomMatrix(batch * k * n, 22);
  std::vector<double> c(static_cast<std::size_t>(batch * m * n), 0.0);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, batch, 1.0, 0.0};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  for (std::int64_t bi = 0; bi < batch; ++bi)
    kernel::referenceGemm(
        expected.data() + bi * m * n, a.data() + bi * m * k,
        b.data() + bi * k * n, m, n, k, 1.0, 0.0, 32, [](double v) {
          return std::nearbyint(v * kernel::kQuantScale) /
                 kernel::kQuantScale;
        });
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), batch * m * n),
            0.0);
}

TEST(MeshGenerality, MeshTimingAgreesOnSmallMesh) {
  // The symmetric estimator's assumptions hold on other mesh sizes too.
  sunway::ArchConfig arch;
  arch.meshRows = 4;
  arch.meshCols = 4;
  CodegenOptions options;
  options.stripFactor = 4;
  SwGemmCompiler compiler(arch);
  CompiledKernel kernel = compiler.compile(options);

  sunway::MeshSimulator mesh(arch, /*functional=*/false);
  auto params = rt::bindParams(kernel.program, 512, 512, 256, 1);
  const double flops = rt::gemmFlops(512, 512, 256);
  rt::RunOutcome simulated =
      rt::runOnMesh(mesh, kernel.program, params, rt::ExecScalars{}, flops);
  rt::RunOutcome estimated =
      rt::estimateTiming(arch, kernel.program, params, flops);
  EXPECT_NEAR(estimated.seconds, simulated.seconds, 0.03 * simulated.seconds);
}

}  // namespace
}  // namespace sw::core
