// ServiceFrontend: the overload-safe admission layer in front of
// KernelService.
//
// KernelService bounds the *cost per request* (caches, single-flight,
// degradation ladder); ServiceFrontend bounds the *requests in flight*.
// Every request carries a RequestContext{tenant, priority, deadline} and
// passes three admission gates at enqueue:
//   1. deadline — an already-expired budget is rejected immediately
//      (OverloadKind::kDeadlineExpired);
//   2. per-tenant token-bucket quota (kQuotaExhausted, naming the tenant);
//   3. bounded priority queue — when full, the newest strictly-lower-
//      priority entry is displaced in favour of a higher-priority arrival
//      (the displaced future fails with kQueueFull), otherwise the arrival
//      itself is rejected fast (kQueueFull).
// A fixed worker pool drains the queue in (priority desc, FIFO) order,
// re-checks the deadline at dequeue (kDeadlineMiss — a request never
// occupies a worker it can no longer satisfy), and serves through a
// per-failure-domain circuit breaker:
//   * compile pipeline — open breaker fails queued compiles fast
//     (kCircuitOpen) until a half-open probe compiles successfully;
//   * mesh run — runGuarded() routes callers straight down to the bottom
//     of the runResilient ladder (timing-only estimator, zero-filled C)
//     while open, instead of re-attempting a known-bad mesh;
//   * tuner search — resolveGuarded() fails fast while open.
// Rejected work always surfaces as a typed OverloadError; nothing is
// silently dropped.
//
// Observability: the admission counts live in stats(); the global
// MetricsRegistry gets only failure-path `service.admission.*` events
// (shed + per-cause breakdown, displaced, deadline_miss, breaker_trip,
// breaker_open.<domain>).  Each dequeued request records the
// "service.admission.queue_wait" latency histogram and an
// "admission.request" trace span.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/admission.h"
#include "service/kernel_service.h"

namespace sw::service {

/// One admitted compile request's result.
struct CompileResponse {
  KernelService::KernelPtr kernel;
  ServeOutcome outcome = ServeOutcome::kCompiled;
  double queueWaitSeconds = 0.0;  // enqueue → dequeue
  double totalSeconds = 0.0;      // enqueue → completion
};

/// Aggregate admission counters: the one home of these numbers.
struct FrontendStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;  // served but the pipeline threw
  std::int64_t shedQueueFull = 0;
  std::int64_t shedQuota = 0;
  std::int64_t shedDeadlineAtEnqueue = 0;
  std::int64_t displaced = 0;  // subset of shedQueueFull: evicted by a
                               // higher-priority arrival
  std::int64_t deadlineMisses = 0;      // expired while queued
  std::int64_t breakerFastFails = 0;    // rejected by an open breaker
  std::int64_t queueDepth = 0;
  std::int64_t queueDepthPeak = 0;

  /// Every request rejected without being served.
  [[nodiscard]] std::int64_t shedTotal() const {
    return shedQueueFull + shedQuota + shedDeadlineAtEnqueue +
           deadlineMisses + breakerFastFails;
  }
};

class ServiceFrontend {
 public:
  /// Monotonic seconds; tests substitute a fake clock to drive deadlines,
  /// quotas and breaker cooldowns deterministically.
  using ClockFn = std::function<double()>;

  enum class Domain { kCompile, kRun, kTune };

  /// The frontend serves through (and does not own) `service`, which must
  /// outlive it.
  explicit ServiceFrontend(KernelService& service, AdmissionConfig config = {},
                           ClockFn clock = {});
  ~ServiceFrontend();

  ServiceFrontend(const ServiceFrontend&) = delete;
  ServiceFrontend& operator=(const ServiceFrontend&) = delete;

  /// Admit a compile request; throws OverloadError when shed at enqueue.
  /// The future fails with OverloadError when the request is displaced,
  /// misses its deadline in the queue, or hits an open compile breaker,
  /// and with the pipeline's own error when the compile itself fails.
  std::future<CompileResponse> submitCompile(const core::CodegenOptions& options,
                                             const RequestContext& ctx);

  /// submitCompile + get: the synchronous convenience wrapper.
  CompileResponse compile(const core::CodegenOptions& options,
                          const RequestContext& ctx);

  /// Breaker-guarded resilient run (admission-checked on the caller's
  /// thread: expired deadline and quota shed as usual; mesh runs are not
  /// queued — the bounded queue protects the compile pipeline).  While the
  /// mesh-run breaker is open, callers are routed straight to the bottom
  /// of the runResilient ladder: a timing-only estimator result with C
  /// zero-filled, recorded as a degradation — until a half-open probe
  /// completes a real mesh run.
  KernelService::ResilientRunResult runGuarded(
      const core::CodegenOptions& options, const core::GemmProblem& problem,
      std::span<const double> a, std::span<const double> b,
      std::span<double> c, const RequestContext& ctx,
      const core::FunctionalRunConfig& runConfig = {});

  /// Breaker-guarded schedule resolution; fails fast with kCircuitOpen
  /// while the tuner-search domain is open.
  KernelService::ResolvedSchedule resolveGuarded(
      const core::CodegenOptions& base, const core::GemmProblem& problem,
      const RequestContext& ctx);

  /// Stop accepting work, fail everything still queued with kShutdown and
  /// join the workers.  Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] FrontendStats stats() const;
  [[nodiscard]] KernelService& service() { return service_; }
  [[nodiscard]] const AdmissionConfig& config() const { return config_; }
  [[nodiscard]] CircuitBreaker& breaker(Domain domain);
  /// Sum of trips across all three domains (soak reporting).
  [[nodiscard]] std::int64_t breakerTrips() const;

 private:
  struct Queued {
    core::CodegenOptions options;
    RequestContext ctx;
    double enqueuedAt = 0.0;
    double deadlineAt = 0.0;  // absolute; +inf = none
    std::promise<CompileResponse> promise;
  };
  /// Queue order: (-priority, seq) — begin() is the highest priority,
  /// oldest first; the newest lowest-priority entry sits at rbegin().
  using QueueKey = std::pair<int, std::uint64_t>;

  void workerLoop();
  /// Serve one dequeued request on a worker thread.
  void serveCompile(Queued item, double dequeuedAt);
  /// Shared enqueue-side admission gates; throws OverloadError on shed.
  /// Returns the absolute deadline.
  double admit(const RequestContext& ctx, const char* what);

  KernelService& service_;
  const AdmissionConfig config_;
  ClockFn clock_;

  TenantQuotas quotas_;
  CircuitBreaker compileBreaker_;
  CircuitBreaker runBreaker_;
  CircuitBreaker tuneBreaker_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<QueueKey, Queued> queue_;
  std::uint64_t nextSeq_ = 0;
  bool stopping_ = false;
  FrontendStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace sw::service
