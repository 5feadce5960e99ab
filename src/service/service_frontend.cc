#include "service/service_frontend.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "support/error.h"
#include "support/format.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace sw::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double steadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Record one queue-wait latency (ms); returns the bucket label for the
/// request's trace span.
std::string recordQueueWait(double seconds) {
  const double ms = seconds * 1e3;
  metrics::HistogramRegistry::global().record("service.admission.queue_wait",
                                              ms);
  return metrics::Histogram::bucketLabel(metrics::Histogram::bucketIndex(ms));
}

void countShed(const char* cause) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
  registry.add("service.admission.shed", 1.0);
  registry.add(strCat("service.admission.shed_", cause), 1.0);
}

}  // namespace

ServiceFrontend::ServiceFrontend(KernelService& service,
                                 AdmissionConfig config, ClockFn clock)
    : service_(service),
      config_(std::move(config)),
      clock_(clock ? std::move(clock) : ClockFn(steadyNowSeconds)),
      quotas_(config_),
      compileBreaker_("compile", config_.breakerFailureThreshold,
                      config_.breakerCooldownSeconds),
      runBreaker_("run", config_.breakerFailureThreshold,
                  config_.breakerCooldownSeconds),
      tuneBreaker_("tune", config_.breakerFailureThreshold,
                   config_.breakerCooldownSeconds) {
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ServiceFrontend::~ServiceFrontend() { shutdown(); }

CircuitBreaker& ServiceFrontend::breaker(Domain domain) {
  switch (domain) {
    case Domain::kCompile: return compileBreaker_;
    case Domain::kRun: return runBreaker_;
    case Domain::kTune: return tuneBreaker_;
  }
  return compileBreaker_;
}

std::int64_t ServiceFrontend::breakerTrips() const {
  return compileBreaker_.trips() + runBreaker_.trips() + tuneBreaker_.trips();
}

double ServiceFrontend::admit(const RequestContext& ctx, const char* what) {
  const double now = clock_();
  double budget = ctx.deadlineSeconds;
  if (budget == kInf) budget = config_.defaultDeadlineSeconds;
  if (!(budget > 0.0)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.submitted;
      ++stats_.shedDeadlineAtEnqueue;
    }
    countShed("deadline");
    throw OverloadError(
        OverloadKind::kDeadlineExpired, ctx.tenant,
        strCat(what, " request from tenant '", ctx.tenant,
               "' arrived with an already-expired deadline (budget ", budget,
               " s)"));
  }
  if (!quotas_.tryAcquire(ctx.tenant, now)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.submitted;
      ++stats_.shedQuota;
    }
    countShed("quota");
    throw OverloadError(OverloadKind::kQuotaExhausted, ctx.tenant,
                        strCat("tenant '", ctx.tenant, "' is over quota: ",
                               what, " request shed by the token bucket"));
  }
  return budget == kInf ? kInf : now + budget;
}

std::future<CompileResponse> ServiceFrontend::submitCompile(
    const core::CodegenOptions& options, const RequestContext& ctx) {
  const double deadlineAt = admit(ctx, "compile");
  const double now = clock_();

  // While the compile breaker is fully open there is no point queueing
  // doomed work; half-open traffic passes through so the worker-side probe
  // can test recovery.
  if (compileBreaker_.state(now) == CircuitBreaker::State::kOpen) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.breakerFastFails;
    }
    countShed("circuit_open");
    throw OverloadError(OverloadKind::kCircuitOpen, ctx.tenant,
                        "compile-pipeline circuit breaker is open");
  }

  Queued item;
  item.options = options;
  item.ctx = ctx;
  item.enqueuedAt = now;
  item.deadlineAt = deadlineAt;
  std::future<CompileResponse> future = item.promise.get_future();

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      throw OverloadError(OverloadKind::kShutdown, ctx.tenant,
                          "service frontend is shutting down");
    }
    ++stats_.submitted;
    if (queue_.size() >= config_.maxQueueDepth) {
      // A full queue sheds exactly one request: the newest strictly-lower-
      // priority entry when the arrival outranks it, else the arrival.
      auto victim = queue_.empty() ? queue_.end() : std::prev(queue_.end());
      if (victim != queue_.end() &&
          -victim->first.first < ctx.priority) {
        victim->second.promise.set_exception(std::make_exception_ptr(
            OverloadError(OverloadKind::kQueueFull, victim->second.ctx.tenant,
                          strCat("request from tenant '",
                                 victim->second.ctx.tenant,
                                 "' displaced from the full admission queue "
                                 "by a higher-priority arrival"))));
        queue_.erase(victim);
        ++stats_.displaced;
        ++stats_.shedQueueFull;
        metrics::MetricsRegistry::global().add("service.admission.displaced",
                                               1.0);
        countShed("queue_full");
      } else {
        ++stats_.shedQueueFull;
        lock.unlock();
        countShed("queue_full");
        throw OverloadError(
            OverloadKind::kQueueFull, ctx.tenant,
            strCat("admission queue full (depth ", config_.maxQueueDepth,
                   "); compile request from tenant '", ctx.tenant,
                   "' shed"));
      }
    }
    queue_.emplace(QueueKey{-ctx.priority, nextSeq_++}, std::move(item));
    stats_.queueDepth = static_cast<std::int64_t>(queue_.size());
    stats_.queueDepthPeak = std::max(stats_.queueDepthPeak, stats_.queueDepth);
  }
  cv_.notify_one();
  return future;
}

CompileResponse ServiceFrontend::compile(const core::CodegenOptions& options,
                                         const RequestContext& ctx) {
  return submitCompile(options, ctx).get();
}

void ServiceFrontend::workerLoop() {
  while (true) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      auto node = queue_.extract(queue_.begin());
      item = std::move(node.mapped());
      stats_.queueDepth = static_cast<std::int64_t>(queue_.size());
    }
    serveCompile(std::move(item), clock_());
  }
}

void ServiceFrontend::serveCompile(Queued item, double dequeuedAt) {
  const double waitSeconds = std::max(0.0, dequeuedAt - item.enqueuedAt);
  trace::Span span(
      "admission.request",
      {trace::arg("tenant", item.ctx.tenant),
       trace::arg("priority", static_cast<std::int64_t>(item.ctx.priority)),
       trace::arg("wait_bucket", recordQueueWait(waitSeconds))},
      "service");

  if (dequeuedAt > item.deadlineAt) {
    span.addArg(trace::arg("outcome", "deadline_miss"));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.deadlineMisses;
    }
    metrics::MetricsRegistry::global().add("service.admission.deadline_miss",
                                           1.0);
    countShed("deadline");
    item.promise.set_exception(std::make_exception_ptr(OverloadError(
        OverloadKind::kDeadlineMiss, item.ctx.tenant,
        strCat("compile request from tenant '", item.ctx.tenant,
               "' missed its deadline after ", waitSeconds,
               " s in the admission queue"))));
    return;
  }

  if (!compileBreaker_.allowRequest(dequeuedAt)) {
    span.addArg(trace::arg("outcome", "circuit_open"));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.breakerFastFails;
    }
    countShed("circuit_open");
    item.promise.set_exception(std::make_exception_ptr(
        OverloadError(OverloadKind::kCircuitOpen, item.ctx.tenant,
                      "compile-pipeline circuit breaker is open")));
    return;
  }

  try {
    CompileResponse response;
    response.kernel = service_.compile(item.options, &response.outcome);
    compileBreaker_.recordSuccess(clock_());
    response.queueWaitSeconds = waitSeconds;
    response.totalSeconds = std::max(0.0, clock_() - item.enqueuedAt);
    span.addArg(trace::arg("outcome", toString(response.outcome)));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.completed;
    }
    item.promise.set_value(std::move(response));
  } catch (...) {
    compileBreaker_.recordFailure(clock_());
    span.addArg(trace::arg("outcome", "error"));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
    }
    item.promise.set_exception(std::current_exception());
  }
}

KernelService::ResilientRunResult ServiceFrontend::runGuarded(
    const core::CodegenOptions& options, const core::GemmProblem& problem,
    std::span<const double> a, std::span<const double> b, std::span<double> c,
    const RequestContext& ctx, const core::FunctionalRunConfig& runConfig) {
  admit(ctx, "run");
  const double now = clock_();

  if (!runBreaker_.allowRequest(now)) {
    // Open mesh-run breaker: skip the known-bad mesh entirely and serve
    // the bottom of the runResilient ladder — timing-only estimator with
    // a zero-filled C — until a half-open probe proves recovery.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.breakerFastFails;
    }
    countShed("circuit_open");
    SW_WARN("service", "event=run_breaker_open tenant=", ctx.tenant,
            " action=serve_estimator");
    KernelService::ResilientRunResult result;
    KernelService::KernelPtr kernel = service_.compile(options);
    result.outcome = core::estimateGemm(*kernel, service_.arch(), problem);
    std::fill(c.begin(), c.end(), 0.0);
    result.servedOptions = kernel->options;
    result.usedEstimator = true;
    result.degradations.push_back(KernelService::DegradeStep{
        "admission", "estimator", "mesh-run circuit breaker is open"});
    return result;
  }

  try {
    KernelService::ResilientRunResult result =
        service_.runResilient(options, problem, a, b, c, runConfig);
    // A run that fell all the way to the estimator is a mesh failure for
    // breaker purposes even though the caller got a (timing-only) answer.
    if (result.usedEstimator) {
      runBreaker_.recordFailure(clock_());
    } else {
      runBreaker_.recordSuccess(clock_());
    }
    return result;
  } catch (...) {
    runBreaker_.recordFailure(clock_());
    throw;
  }
}

KernelService::ResolvedSchedule ServiceFrontend::resolveGuarded(
    const core::CodegenOptions& base, const core::GemmProblem& problem,
    const RequestContext& ctx) {
  admit(ctx, "tune");
  const double now = clock_();
  if (!tuneBreaker_.allowRequest(now)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.breakerFastFails;
    }
    countShed("circuit_open");
    throw OverloadError(OverloadKind::kCircuitOpen, ctx.tenant,
                        "tuner-search circuit breaker is open");
  }
  try {
    KernelService::ResolvedSchedule resolved =
        service_.resolveSchedule(base, problem);
    tuneBreaker_.recordSuccess(clock_());
    return resolved;
  } catch (...) {
    tuneBreaker_.recordFailure(clock_());
    throw;
  }
}

void ServiceFrontend::shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
  // Workers drain the queue before exiting, but anything enqueued in the
  // shutdown race (or left when workers never ran) must still be answered.
  std::map<QueueKey, Queued> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers.swap(queue_);
    stats_.queueDepth = 0;
  }
  for (auto& [key, item] : leftovers) {
    item.promise.set_exception(std::make_exception_ptr(
        OverloadError(OverloadKind::kShutdown, item.ctx.tenant,
                      "service frontend shut down before the request ran")));
  }
}

FrontendStats ServiceFrontend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sw::service
