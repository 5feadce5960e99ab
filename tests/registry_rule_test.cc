// The registry rule: a run's numbers live in its PerfReport, a kernel's in
// its program, the services' in their stats() and latencies in the
// histogram registry, so nothing on the success path of an estimate, a
// functional or sharded run, a compile, a service hit or miss, a frontend
// round trip or a tuner search writes to the metrics registry.  Each case
// snapshots the registry before and after one such operation and demands
// the two snapshots be equal.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "service/kernel_service.h"
#include "service/service_frontend.h"
#include "support/metrics.h"

namespace sw {
namespace {

/// Runs `operation` and expects the registry to read the same after it as
/// before it.
void expectRegistryUntouched(const std::function<void()>& operation) {
  const std::map<std::string, double> before =
      metrics::MetricsRegistry::global().snapshot();
  operation();
  EXPECT_EQ(metrics::MetricsRegistry::global().snapshot(), before);
}

/// Seeded operands of one problem.
struct Operands {
  explicit Operands(const core::GemmProblem& p)
      : a(static_cast<std::size_t>(p.batch * p.m * p.k), 0.5),
        b(static_cast<std::size_t>(p.batch * p.k * p.n), 0.25),
        c(static_cast<std::size_t>(p.batch * p.m * p.n), 1.0) {}
  std::vector<double> a, b, c;
};

class RegistryRule : public ::testing::Test {
 protected:
  core::SwGemmCompiler compiler_;
  const core::CompiledKernel kernel_ = compiler_.compile({});
  const core::GemmProblem problem_{100, 100, 100, 1};
};

TEST_F(RegistryRule, EstimateWritesNothing) {
  expectRegistryUntouched([&] {
    const rt::RunOutcome outcome =
        core::estimateGemm(kernel_, compiler_.arch(), {1024, 1024, 1024, 1});
    EXPECT_GT(outcome.gflops, 0.0);
  });
}

TEST_F(RegistryRule, FunctionalRunWritesNothing) {
  Operands operands(problem_);
  expectRegistryUntouched([&] {
    const rt::RunOutcome outcome = core::runGemmFunctional(
        kernel_, compiler_.arch(), problem_, operands.a, operands.b,
        operands.c);
    EXPECT_GT(outcome.seconds, 0.0);
  });
}

TEST_F(RegistryRule, ShardedRunWritesNothing) {
  Operands operands(problem_);
  core::ShardedConfig config;
  config.groups = 2;
  expectRegistryUntouched([&] {
    const core::ShardedOutcome outcome = core::runShardedFunctional(
        kernel_, compiler_.arch(), config, problem_, operands.a, operands.b,
        operands.c);
    EXPECT_EQ(outcome.groupsUsed, 2);
  });
}

TEST_F(RegistryRule, CompileWritesNothing) {
  core::CodegenOptions options;
  options.tileM = options.tileN = 32;
  expectRegistryUntouched([&] { (void)compiler_.compile(options); });
}

TEST_F(RegistryRule, ServiceMissAndHitWriteNothing) {
  service::KernelService service;
  service::ServeOutcome outcome = service::ServeOutcome::kCompiled;
  expectRegistryUntouched([&] {
    (void)service.compile(core::CodegenOptions{}, &outcome);
    EXPECT_EQ(outcome, service::ServeOutcome::kCompiled);
  });
  expectRegistryUntouched([&] {
    (void)service.compile(core::CodegenOptions{}, &outcome);
    EXPECT_EQ(outcome, service::ServeOutcome::kMemoryHit);
  });
  EXPECT_EQ(service.stats().requests, 2);
}

TEST_F(RegistryRule, FrontendRoundTripWritesNothing) {
  service::KernelService service;
  service::ServiceFrontend frontend(service);
  expectRegistryUntouched([&] {
    const service::CompileResponse response =
        frontend.compile(core::CodegenOptions{}, service::RequestContext{});
    EXPECT_NE(response.kernel, nullptr);
  });
  frontend.shutdown();
  EXPECT_EQ(frontend.stats().completed, 1);
}

TEST_F(RegistryRule, TunerSearchWritesNothing) {
  service::KernelServiceConfig config;
  config.tuner.space.tileMN = {16, 32};
  config.tuner.space.tileK = {16};
  config.tuner.validateTopN = 1;  // one mesh validation run too
  service::KernelService service(sunway::ArchConfig{}, config);
  expectRegistryUntouched([&] {
    const service::KernelService::ResolvedSchedule resolved =
        service.resolveSchedule(core::CodegenOptions{}, problem_);
    EXPECT_EQ(resolved.record.candidatesValidated, 1);
  });
  EXPECT_EQ(service.stats().tuneSearches, 1);
}

}  // namespace
}  // namespace sw
