// Admission-layer tests: token-bucket quotas, the circuit-breaker state
// machine, and the ServiceFrontend edge cases the overload design hinges
// on — an already-expired deadline rejected at enqueue, quota exhaustion
// surfacing a typed error naming the tenant, a low-priority flood never
// starving a high-priority arrival (displacement), deadline misses
// detected at dequeue, and breaker recovery through the half-open probe.
// Clocks are faked throughout so every deadline/cooldown is deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/pipeline.h"
#include "service/service_frontend.h"
#include "support/error.h"
#include "support/histogram.h"
#include "support/metrics.h"

namespace sw::service {
namespace {

/// Shared fake clock: tests advance it explicitly; the frontend's workers
/// read it through the ClockFn seam.
struct FakeClock {
  std::shared_ptr<std::atomic<double>> now =
      std::make_shared<std::atomic<double>>(0.0);

  ServiceFrontend::ClockFn fn() const {
    auto shared = now;
    return [shared] { return shared->load(); };
  }
  void advance(double seconds) {
    now->store(now->load() + seconds);
  }
};

core::CodegenOptions tileVariant(std::int64_t tileM, std::int64_t tileK = 32) {
  core::CodegenOptions options;
  options.tileM = tileM;
  options.tileK = tileK;
  return options;
}

/// Real compiles behind a gate the test opens, so requests pile up in the
/// admission queue deterministically; the serve order of tileM values is
/// recorded for priority-ordering assertions.
struct GatedCompiler {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::vector<std::int64_t> served;

  KernelService::CompileFn fn() {
    return [this](const core::CodegenOptions& options) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
        served.push_back(options.tileM);
      }
      return core::SwGemmCompiler().compile(options);
    };
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

/// Spin until the single worker has extracted the in-flight request, so
/// subsequent submits see a deterministic queue depth.
void waitForEmptyQueue(ServiceFrontend& frontend) {
  while (frontend.stats().queueDepth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

OverloadKind kindOf(std::future<CompileResponse>& future) {
  try {
    future.get();
  } catch (const OverloadError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "future completed without an OverloadError";
  return OverloadKind::kShutdown;
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket bucket(TenantQuota{/*burst=*/2.0, /*refillPerSecond=*/1.0},
                     /*now=*/0.0);
  EXPECT_TRUE(bucket.tryAcquire(0.0));
  EXPECT_TRUE(bucket.tryAcquire(0.0));
  EXPECT_FALSE(bucket.tryAcquire(0.0));  // burst exhausted
  EXPECT_FALSE(bucket.tryAcquire(0.5));  // half a token is not one
  EXPECT_TRUE(bucket.tryAcquire(1.0));   // refilled
  // Refill caps at the burst size: a long idle stretch does not bank
  // unbounded tokens.
  EXPECT_TRUE(bucket.tryAcquire(100.0));
  EXPECT_TRUE(bucket.tryAcquire(100.0));
  EXPECT_FALSE(bucket.tryAcquire(100.0));
}

TEST(TenantQuotasTest, EvictsBucketsIdlePastRefillToBurstHorizon) {
  AdmissionConfig config;
  config.defaultQuota = TenantQuota{/*burst=*/4.0, /*refillPerSecond=*/1.0};
  // A non-refilling tenant can never be reconstructed from scratch, so its
  // bucket must survive every sweep.
  config.tenantQuotas["pinned"] =
      TenantQuota{/*burst=*/2.0, /*refillPerSecond=*/0.0};
  TenantQuotas quotas(config);

  // A soak's worth of one-shot tenant names must not grow the map forever.
  constexpr int kTenants = 10000;
  for (int i = 0; i < kTenants; ++i)
    EXPECT_TRUE(quotas.tryAcquire("tenant-" + std::to_string(i), 0.0));
  EXPECT_TRUE(quotas.tryAcquire("pinned", 0.0));
  EXPECT_EQ(quotas.bucketCount(), kTenants + 1u);

  // Horizon for the default quota is burst/refill = 4 s.  At t=3.9 the
  // buckets are not yet refilled to burst — nothing may be evicted.
  EXPECT_TRUE(quotas.tryAcquire("keepalive", 3.9));
  EXPECT_EQ(quotas.bucketCount(), kTenants + 2u);

  // Past the horizon every idle default bucket is back at full burst and
  // equivalent to a fresh one; only the recent tenant and the
  // non-refilling override survive the sweep.
  EXPECT_TRUE(quotas.tryAcquire("keepalive", 5.0));
  EXPECT_EQ(quotas.bucketCount(), 2u);

  // Semantics preserved: an evicted tenant re-admits at full burst,
  // exactly as its (fully refilled) bucket would have.
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(quotas.tryAcquire("tenant-0", 5.0)) << i;
  EXPECT_FALSE(quotas.tryAcquire("tenant-0", 5.0));

  // The pinned non-refilling bucket kept its spent-token state: it never
  // reaches the refill-to-burst horizon, so it was not recreated.
  EXPECT_TRUE(quotas.tryAcquire("pinned", 100.0));
  EXPECT_FALSE(quotas.tryAcquire("pinned", 100.0));  // 2-burst spent
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndProbesRecovery) {
  CircuitBreaker breaker("test", /*failureThreshold=*/3,
                         /*cooldownSeconds=*/10.0);
  EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::kClosed);

  breaker.recordFailure(0.0);
  breaker.recordFailure(0.0);
  // A success in between resets the consecutive count.
  breaker.recordSuccess(0.0);
  breaker.recordFailure(1.0);
  breaker.recordFailure(1.0);
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kClosed);
  breaker.recordFailure(1.0);  // third consecutive: trips
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);

  EXPECT_FALSE(breaker.allowRequest(5.0));  // still cooling down
  // Past the cooldown: exactly one caller claims the half-open probe.
  EXPECT_TRUE(breaker.allowRequest(12.0));
  EXPECT_EQ(breaker.state(12.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allowRequest(12.0));  // probe already in flight

  // Probe failure re-opens for another full cooldown.
  breaker.recordFailure(12.0);
  EXPECT_EQ(breaker.state(12.0), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allowRequest(13.0));
  EXPECT_TRUE(breaker.allowRequest(23.0));  // next probe
  breaker.recordSuccess(23.0);
  EXPECT_EQ(breaker.state(23.0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allowRequest(23.0));
  EXPECT_EQ(breaker.trips(), 1);  // re-opening a probe is not a new trip
}

TEST(ServiceFrontendTest, ExpiredDeadlineRejectedAtEnqueue) {
  KernelService service;
  FakeClock clock;
  ServiceFrontend frontend(service, {}, clock.fn());

  RequestContext ctx;
  ctx.tenant = "impatient";
  ctx.deadlineSeconds = 0.0;  // already expired at enqueue
  try {
    frontend.submitCompile(core::CodegenOptions{}, ctx);
    FAIL() << "expired deadline was admitted";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind(), OverloadKind::kDeadlineExpired);
    EXPECT_EQ(e.tenant(), "impatient");
  }
  EXPECT_EQ(frontend.stats().shedDeadlineAtEnqueue, 1);
  EXPECT_EQ(service.stats().requests, 0);  // never reached the service
}

TEST(ServiceFrontendTest, QuotaExhaustionReturnsTypedErrorNamingTenant) {
  KernelService service;
  FakeClock clock;
  AdmissionConfig config;
  config.tenantQuotas["noisy"] =
      TenantQuota{/*burst=*/2.0, /*refillPerSecond=*/1.0};
  ServiceFrontend frontend(service, config, clock.fn());

  RequestContext noisy;
  noisy.tenant = "noisy";
  frontend.compile(core::CodegenOptions{}, noisy);
  frontend.compile(core::CodegenOptions{}, noisy);
  try {
    frontend.submitCompile(core::CodegenOptions{}, noisy);
    FAIL() << "third request should exceed the burst of 2";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind(), OverloadKind::kQuotaExhausted);
    EXPECT_EQ(e.tenant(), "noisy");
    EXPECT_NE(std::string(e.what()).find("noisy"), std::string::npos);
  }
  EXPECT_EQ(frontend.stats().shedQuota, 1);

  // Another tenant is untouched by the noisy one's exhaustion, and the
  // noisy tenant recovers once the bucket refills.
  RequestContext other;
  other.tenant = "quiet";
  EXPECT_NE(frontend.compile(core::CodegenOptions{}, other).kernel, nullptr);
  clock.advance(1.0);
  EXPECT_NE(frontend.compile(core::CodegenOptions{}, noisy).kernel, nullptr);
}

TEST(ServiceFrontendTest, LowPriorityFloodNeverStarvesHighPriority) {
  GatedCompiler gated;
  KernelService service(gated.fn(), sunway::ArchConfig{}, {});
  AdmissionConfig config;
  config.workers = 1;
  config.maxQueueDepth = 3;
  ServiceFrontend frontend(service, config);

  // The worker picks up the first request and blocks at the gate; three
  // more low-priority requests fill the queue.
  RequestContext low;
  std::vector<std::future<CompileResponse>> flood;
  flood.push_back(frontend.submitCompile(tileVariant(64), low));   // in worker
  waitForEmptyQueue(frontend);
  flood.push_back(frontend.submitCompile(tileVariant(32), low));
  flood.push_back(frontend.submitCompile(tileVariant(16), low));
  flood.push_back(frontend.submitCompile(tileVariant(64, 16), low));

  // A further low-priority arrival is shed — the queue is full and it
  // outranks nobody.
  EXPECT_THROW(frontend.submitCompile(tileVariant(32, 16), low),
               OverloadError);

  // A high-priority arrival is admitted by displacing the newest
  // low-priority entry, whose future fails with a typed error.
  RequestContext high;
  high.priority = 5;
  std::future<CompileResponse> urgent =
      frontend.submitCompile(tileVariant(16, 16), high);
  EXPECT_EQ(kindOf(flood[3]), OverloadKind::kQueueFull);
  EXPECT_EQ(frontend.stats().displaced, 1);

  gated.release();
  EXPECT_NE(urgent.get().kernel, nullptr);
  EXPECT_NE(flood[0].get().kernel, nullptr);
  EXPECT_NE(flood[1].get().kernel, nullptr);
  EXPECT_NE(flood[2].get().kernel, nullptr);

  // Serve order after the in-flight request: the high-priority arrival
  // jumped the two queued low-priority entries.
  ASSERT_EQ(gated.served.size(), 4u);
  EXPECT_EQ(gated.served[0], 64);  // was already in the worker
  EXPECT_EQ(gated.served[1], 16);  // high priority served next
  frontend.shutdown();
}

TEST(ServiceFrontendTest, DeadlineMissInQueueDetectedAtDequeue) {
  GatedCompiler gated;
  KernelService service(gated.fn(), sunway::ArchConfig{}, {});
  FakeClock clock;
  AdmissionConfig config;
  config.workers = 1;
  ServiceFrontend frontend(service, config, clock.fn());

  RequestContext blocker;
  std::future<CompileResponse> first =
      frontend.submitCompile(tileVariant(64), blocker);

  RequestContext deadlined;
  deadlined.tenant = "slow";
  deadlined.deadlineSeconds = 10.0;
  std::future<CompileResponse> queued =
      frontend.submitCompile(tileVariant(32), deadlined);

  clock.advance(60.0);  // the queued request's budget expires while waiting
  gated.release();

  EXPECT_EQ(kindOf(queued), OverloadKind::kDeadlineMiss);
  EXPECT_NE(first.get().kernel, nullptr);  // no deadline, still served
  EXPECT_EQ(frontend.stats().deadlineMisses, 1);
  EXPECT_GE(metrics::MetricsRegistry::global().get(
                "service.admission.deadline_miss"),
            1.0);
  frontend.shutdown();
}

TEST(ServiceFrontendTest, CompileBreakerFailsFastThenRecoversViaProbe) {
  std::atomic<bool> healthy{false};
  KernelService service(
      [&healthy](const core::CodegenOptions& options) {
        if (!healthy.load()) throw TransientError("compile backend down");
        return core::SwGemmCompiler().compile(options);
      },
      sunway::ArchConfig{}, {});
  FakeClock clock;
  AdmissionConfig config;
  config.workers = 1;
  config.breakerFailureThreshold = 2;
  config.breakerCooldownSeconds = 5.0;
  ServiceFrontend frontend(service, config, clock.fn());

  RequestContext ctx;
  // Two consecutive failures trip the compile breaker (failed compiles
  // are never cached, so distinct variants each reach the backend).
  EXPECT_THROW(frontend.compile(tileVariant(64), ctx), TransientError);
  EXPECT_THROW(frontend.compile(tileVariant(32), ctx), TransientError);
  EXPECT_EQ(frontend.breaker(ServiceFrontend::Domain::kCompile).trips(), 1);

  // While open, submits fail fast with a typed error — nothing queues.
  try {
    frontend.submitCompile(tileVariant(16), ctx);
    FAIL() << "open breaker admitted a compile";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind(), OverloadKind::kCircuitOpen);
  }
  EXPECT_GE(frontend.stats().breakerFastFails, 1);

  // After the cooldown the backend has recovered: the half-open probe
  // compiles successfully and the breaker closes for good.
  healthy.store(true);
  clock.advance(6.0);
  EXPECT_NE(frontend.compile(tileVariant(16), ctx).kernel, nullptr);
  EXPECT_EQ(frontend.breaker(ServiceFrontend::Domain::kCompile).state(
                clock.fn()()),
            CircuitBreaker::State::kClosed);
  EXPECT_NE(frontend.compile(tileVariant(64), ctx).kernel, nullptr);
  frontend.shutdown();
}

TEST(ServiceFrontendTest, OpenRunBreakerServesZeroFilledEstimator) {
  KernelService service;
  FakeClock clock;
  AdmissionConfig config;
  config.breakerFailureThreshold = 2;
  ServiceFrontend frontend(service, config, clock.fn());

  CircuitBreaker& breaker = frontend.breaker(ServiceFrontend::Domain::kRun);
  breaker.recordFailure(0.0);
  breaker.recordFailure(0.0);
  ASSERT_EQ(breaker.state(0.0), CircuitBreaker::State::kOpen);

  const core::CodegenOptions options;
  const KernelService::KernelPtr kernel = service.compile(options);
  const core::PaddedShape shape =
      core::padShape(1, 1, 1, kernel->options, service.arch());
  const core::GemmProblem problem{shape.m, shape.n, shape.k, 1};
  const std::vector<double> a(
      static_cast<std::size_t>(shape.m * shape.k), 1.0);
  const std::vector<double> b(
      static_cast<std::size_t>(shape.k * shape.n), 1.0);
  std::vector<double> c(static_cast<std::size_t>(shape.m * shape.n), 7.0);

  RequestContext ctx;
  const KernelService::ResilientRunResult result =
      frontend.runGuarded(options, problem, a, b, c, ctx);
  EXPECT_TRUE(result.usedEstimator);
  ASSERT_FALSE(result.degradations.empty());
  EXPECT_EQ(result.degradations.back().to, "estimator");
  // The estimator carries no data: C must be the promised zero fill, not
  // the caller's stale sentinel values.
  for (const double v : c) ASSERT_EQ(v, 0.0);
  EXPECT_GT(result.outcome.gflops, 0.0);
  frontend.shutdown();
}

TEST(ServiceFrontendTest, SubmitAfterShutdownShedsTyped) {
  KernelService service;
  auto frontend = std::make_unique<ServiceFrontend>(service);
  frontend->shutdown();
  try {
    frontend->submitCompile(core::CodegenOptions{}, RequestContext{});
    FAIL() << "shutdown frontend admitted a request";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.kind(), OverloadKind::kShutdown);
  }
}

TEST(ServiceFrontendTest, QueueWaitHistogramAndStatsRecorded) {
  KernelService service;
  ServiceFrontend frontend(service);
  frontend.compile(core::CodegenOptions{}, RequestContext{});
  frontend.shutdown();

  EXPECT_TRUE(metrics::HistogramRegistry::global().has(
      "service.admission.queue_wait"));
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.queueDepth, 0);
  EXPECT_EQ(stats.queueDepthPeak, 1);
}

}  // namespace
}  // namespace sw::service
