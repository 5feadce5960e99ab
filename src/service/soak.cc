#include "service/soak.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "support/error.h"
#include "support/format.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/metrics.h"

namespace sw::service {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Zipfian sampler over ranks [0, n): P(rank) ∝ 1/(rank+1)^s, drawn by
/// binary search over the precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(int n, double exponent) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
      cdf_[static_cast<std::size_t>(rank)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  int operator()(std::mt19937& rng) const {
    const double u =
        std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Per-client-thread aggregates, merged under one mutex at thread exit.
struct ClientAgg {
  metrics::Histogram queueWaitMs;
  metrics::Histogram latencyMs;
  SoakShed shed;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t verifiedRuns = 0;
  std::int64_t degradedRuns = 0;
  std::int64_t wrongAnswers = 0;

  void merge(const ClientAgg& other) {
    queueWaitMs.merge(other.queueWaitMs);
    latencyMs.merge(other.latencyMs);
    shed.queueFull += other.shed.queueFull;
    shed.quota += other.shed.quota;
    shed.deadlineAtEnqueue += other.shed.deadlineAtEnqueue;
    shed.deadlineMiss += other.shed.deadlineMiss;
    shed.circuitOpen += other.shed.circuitOpen;
    shed.shutdown += other.shed.shutdown;
    completed += other.completed;
    failed += other.failed;
    verifiedRuns += other.verifiedRuns;
    degradedRuns += other.degradedRuns;
    wrongAnswers += other.wrongAnswers;
  }
};

void classifyShed(const OverloadError& e, SoakShed* shed) {
  switch (e.kind()) {
    case OverloadKind::kQueueFull: ++shed->queueFull; return;
    case OverloadKind::kQuotaExhausted: ++shed->quota; return;
    case OverloadKind::kDeadlineExpired: ++shed->deadlineAtEnqueue; return;
    case OverloadKind::kDeadlineMiss: ++shed->deadlineMiss; return;
    case OverloadKind::kCircuitOpen: ++shed->circuitOpen; return;
    case OverloadKind::kShutdown: ++shed->shutdown; return;
  }
}

std::vector<double> randomData(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

/// One chaos-verified functional mesh run: a fault-free baseline of the
/// same schedule, then the faulted run through the breaker-guarded path.
/// Returns false only for a wrong answer (a clean completion that
/// diverges from the baseline, or an estimator completion whose C is not
/// the promised zero-fill); degraded completions set *degraded.
bool verifyChaosRun(ServiceFrontend& frontend, const SoakConfig& config,
                    unsigned seed, bool* degraded) {
  KernelService& service = frontend.service();
  const core::CodegenOptions options;  // the paper-default kernel
  const KernelService::KernelPtr kernel = service.compile(options);

  // Smallest shape with a full pipeline round-trip: one mesh tile, two
  // outer-k iterations.
  const core::PaddedShape shape =
      core::padShape(1, 1, 1, kernel->options, service.arch());
  const std::int64_t m = shape.m, n = shape.n, k = 2 * shape.k;
  const std::vector<double> a = randomData(m * k, seed);
  const std::vector<double> b = randomData(k * n, seed + 1);
  const std::vector<double> c0 = randomData(m * n, seed + 2);
  const core::GemmProblem problem{m, n, k, 1};

  std::vector<double> baseline = c0;
  core::runGemmFunctional(*kernel, service.arch(), problem, a, b, baseline);

  RequestContext ctx;
  ctx.tenant = "chaos";
  ctx.priority = 10;
  core::FunctionalRunConfig runConfig;
  runConfig.faultPlan = config.chaosPlan;
  std::vector<double> faulted = c0;
  const KernelService::ResilientRunResult result =
      frontend.runGuarded(options, problem, a, b, faulted, ctx, runConfig);

  if (result.usedEstimator) {
    *degraded = true;
    // The estimator contract: C is zero-filled, never partial data.
    return std::all_of(faulted.begin(), faulted.end(),
                       [](double v) { return v == 0.0; });
  }
  if (!result.degradations.empty()) {
    // A downgraded schedule computes the same GEMM with a different
    // floating-point association; bit-comparison is only meaningful
    // against the same schedule.
    *degraded = true;
    return true;
  }
  *degraded = false;
  return std::memcmp(baseline.data(), faulted.data(),
                     baseline.size() * sizeof(double)) == 0;
}

/// Settle one finished request into the aggregates.
void settle(std::future<CompileResponse>&& future, ClientAgg* agg) {
  try {
    const CompileResponse response = future.get();
    ++agg->completed;
    agg->queueWaitMs.record(response.queueWaitSeconds * 1e3);
    agg->latencyMs.record(response.totalSeconds * 1e3);
  } catch (const OverloadError& e) {
    classifyShed(e, &agg->shed);
  } catch (const Error&) {
    ++agg->failed;
  }
}

std::string jsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  return strCat(v);
}

}  // namespace

std::vector<core::CodegenOptions> soakCatalog(int size) {
  const int clamped = std::clamp(size, 1, 96);
  std::vector<core::CodegenOptions> catalog;
  catalog.reserve(static_cast<std::size_t>(clamped));
  for (int i = 0; i < clamped; ++i) {
    core::CodegenOptions o;
    o.tileM = o.tileN = std::int64_t{16} << (i % 3);
    o.tileK = (i / 3) % 2 == 0 ? 32 : 16;
    o.useAsm = (i / 6) % 2 == 0;
    o.useRma = (i / 12) % 2 == 0;
    if (!o.useRma) o.hideLatency = false;  // the §6 pipeline needs RMA
    o.fusion = (i / 24) % 2 == 0 ? core::FusionKind::kNone
                                 : core::FusionKind::kEpilogueRelu;
    o.batched = (i / 48) % 2 == 1;
    catalog.push_back(o);
  }
  return catalog;
}

SoakReport runSoak(KernelService& service, const SoakConfig& config) {
  SoakConfig effective = config;
  // The chaos verifier must never be quota-shed: its tenant gets an
  // untightened bucket unless the caller configured one explicitly.
  effective.admission.tenantQuotas.emplace("chaos", TenantQuota{});

  ServiceFrontend frontend(service, effective.admission);
  const std::vector<core::CodegenOptions> catalog =
      soakCatalog(effective.catalogSize);
  const ZipfSampler zipf(static_cast<int>(catalog.size()),
                         effective.zipfExponent);
  const KernelServiceStats statsBefore = service.stats();
  const std::map<std::string, double> registryBefore =
      metrics::MetricsRegistry::global().snapshot();

  const int threads = std::max(1, effective.clientThreads);
  const int window = std::max(1, effective.clientWindow);
  const std::int64_t perThread = effective.requests / threads;
  const std::int64_t remainder = effective.requests % threads;

  std::mutex aggMutex;
  ClientAgg total;
  const double start = nowSeconds();

  auto client = [&](int threadId, std::int64_t count) {
    std::mt19937 rng(effective.seed + static_cast<unsigned>(threadId));
    ClientAgg agg;
    std::deque<std::future<CompileResponse>> outstanding;

    for (std::int64_t i = 0; i < count; ++i) {
      const int rank = zipf(rng);
      RequestContext ctx;
      ctx.tenant = effective.tenants.empty()
                       ? "default"
                       : effective.tenants[static_cast<std::size_t>(
                             i % static_cast<std::int64_t>(
                                     effective.tenants.size()))];
      // A thin slice of elevated-priority traffic keeps the displacement
      // path honest under load.
      const int r = static_cast<int>(i % 100);
      ctx.priority = r < 2 ? 2 : (r < 12 ? 1 : 0);
      ctx.deadlineSeconds = effective.deadlineSeconds;
      try {
        outstanding.push_back(
            frontend.submitCompile(catalog[static_cast<std::size_t>(rank)],
                                   ctx));
      } catch (const OverloadError& e) {
        classifyShed(e, &agg.shed);
      }
      while (outstanding.size() >= static_cast<std::size_t>(window)) {
        settle(std::move(outstanding.front()), &agg);
        outstanding.pop_front();
      }
      if (threadId == 0 && effective.verifyEvery > 0 &&
          (i + 1) % effective.verifyEvery == 0) {
        bool degraded = false;
        const bool ok = verifyChaosRun(
            frontend, effective,
            effective.seed + static_cast<unsigned>(i), &degraded);
        ++agg.verifiedRuns;
        if (degraded) ++agg.degradedRuns;
        if (!ok) ++agg.wrongAnswers;
      }
    }
    while (!outstanding.empty()) {
      settle(std::move(outstanding.front()), &agg);
      outstanding.pop_front();
    }
    std::lock_guard<std::mutex> lock(aggMutex);
    total.merge(agg);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    pool.emplace_back(client, t, perThread + (t < remainder ? 1 : 0));
  for (std::thread& t : pool) t.join();
  frontend.shutdown();  // drain before reading the final counters

  const double wall = std::max(1e-9, nowSeconds() - start);
  const KernelServiceStats statsAfter = service.stats();
  const FrontendStats frontendStats = frontend.stats();

  SoakReport report;
  report.offered = effective.requests;
  report.completed = total.completed;
  report.failed = total.failed;
  report.shed = total.shed;
  report.shedRate =
      report.offered == 0
          ? 0.0
          : static_cast<double>(report.shed.total()) /
                static_cast<double>(report.offered);
  const std::int64_t requestsDelta =
      statsAfter.requests - statsBefore.requests;
  const std::int64_t hitsDelta =
      (statsAfter.memoryHits + statsAfter.shared) -
      (statsBefore.memoryHits + statsBefore.shared);
  report.hitRate = requestsDelta == 0
                       ? 0.0
                       : static_cast<double>(hitsDelta) /
                             static_cast<double>(requestsDelta);
  report.queueWaitP50Ms = total.queueWaitMs.percentile(50.0);
  report.queueWaitP99Ms = total.queueWaitMs.percentile(99.0);
  report.queueWaitMaxMs = total.queueWaitMs.maxRecorded();
  report.latencyP50Ms = total.latencyMs.percentile(50.0);
  report.latencyP99Ms = total.latencyMs.percentile(99.0);
  report.deadlineMs = std::isfinite(effective.deadlineSeconds)
                          ? effective.deadlineSeconds * 1e3
                          : 0.0;
  report.verifiedRuns = total.verifiedRuns;
  report.degradedRuns = total.degradedRuns;
  report.wrongAnswers = total.wrongAnswers;
  if (effective.chaosPlan) report.faultPlan = effective.chaosPlan->describe();
  report.breakerTrips = frontend.breakerTrips();
  report.submitted = frontendStats.submitted;
  report.queueDepthPeak = frontendStats.queueDepthPeak;
  report.displaced = frontendStats.displaced;
  report.wallSeconds = wall;
  report.throughputPerSecond =
      static_cast<double>(report.completed) / wall;

  // The frontend's counts, then the registry's failure-path admission
  // events, under one sorted set of service.admission.* names.  The
  // registry is the process's, so each event counts its change over this
  // soak.
  std::map<std::string, double> admission = {
      {"service.admission.submitted",
       static_cast<double>(frontendStats.submitted)},
      {"service.admission.completed",
       static_cast<double>(frontendStats.completed)},
      {"service.admission.failed", static_cast<double>(frontendStats.failed)},
      {"service.admission.queue_depth_peak",
       static_cast<double>(frontendStats.queueDepthPeak)},
  };
  for (const auto& [name, value] :
       metrics::MetricsRegistry::global().snapshot()) {
    if (name.rfind("service.admission.", 0) != 0) continue;
    const auto before = registryBefore.find(name);
    const double delta =
        value - (before == registryBefore.end() ? 0.0 : before->second);
    if (delta != 0.0) admission.emplace(name, delta);
  }
  report.admissionGauges.assign(admission.begin(), admission.end());

  SW_INFO("service", "event=soak_done offered=", report.offered,
          " completed=", report.completed, " shed=", report.shed.total(),
          " wrong=", report.wrongAnswers, " wall_s=", report.wallSeconds);
  return report;
}

std::string SoakReport::toJson() const {
  std::string gauges;
  for (std::size_t i = 0; i < admissionGauges.size(); ++i) {
    gauges += strCat("    \"", admissionGauges[i].first,
                     "\": ", jsonNum(admissionGauges[i].second),
                     i + 1 < admissionGauges.size() ? ",\n" : "\n");
  }
  return strCat(
      "{\n"
      "  \"schema_version\": ", kSchemaVersion, ",\n"
      "  \"offered\": ", offered, ",\n"
      "  \"completed\": ", completed, ",\n"
      "  \"failed\": ", failed, ",\n"
      "  \"shed\": {\n"
      "    \"total\": ", shed.total(), ",\n"
      "    \"queue_full\": ", shed.queueFull, ",\n"
      "    \"quota\": ", shed.quota, ",\n"
      "    \"deadline_at_enqueue\": ", shed.deadlineAtEnqueue, ",\n"
      "    \"deadline_miss\": ", shed.deadlineMiss, ",\n"
      "    \"circuit_open\": ", shed.circuitOpen, ",\n"
      "    \"shutdown\": ", shed.shutdown, "\n"
      "  },\n"
      "  \"shed_rate\": ", jsonNum(shedRate), ",\n"
      "  \"hit_rate\": ", jsonNum(hitRate), ",\n"
      "  \"latency_ms\": {\n"
      "    \"queue_wait_p50\": ", jsonNum(queueWaitP50Ms), ",\n"
      "    \"queue_wait_p99\": ", jsonNum(queueWaitP99Ms), ",\n"
      "    \"queue_wait_max\": ", jsonNum(queueWaitMaxMs), ",\n"
      "    \"total_p50\": ", jsonNum(latencyP50Ms), ",\n"
      "    \"total_p99\": ", jsonNum(latencyP99Ms), "\n"
      "  },\n"
      "  \"deadline_ms\": ", jsonNum(deadlineMs), ",\n"
      "  \"chaos\": {\n"
      "    \"fault_plan\": \"", faultPlan, "\",\n"
      "    \"verified_runs\": ", verifiedRuns, ",\n"
      "    \"degraded_runs\": ", degradedRuns, ",\n"
      "    \"wrong_answers\": ", wrongAnswers, "\n"
      "  },\n"
      "  \"breaker_trips\": ", breakerTrips, ",\n"
      "  \"queue_depth_peak\": ", queueDepthPeak, ",\n"
      "  \"displaced\": ", displaced, ",\n"
      "  \"wall_seconds\": ", jsonNum(wallSeconds), ",\n"
      "  \"throughput_rps\": ", jsonNum(throughputPerSecond), ",\n"
      "  \"service_admission_metrics\": {\n", gauges,
      "  }\n"
      "}\n");
}

std::string SoakReport::toText() const {
  std::string text = strCat(
      "soak: ", offered, " offered, ", completed, " completed, ", failed,
      " failed, ", shed.total(), " shed (",
      strCat(100.0 * shedRate), "%)\n",
      "  hit rate            ", strCat(100.0 * hitRate), "%\n",
      "  queue wait          p50 ", jsonNum(queueWaitP50Ms), " ms, p99 ",
      jsonNum(queueWaitP99Ms), " ms, max ", jsonNum(queueWaitMaxMs),
      " ms (deadline ", jsonNum(deadlineMs), " ms)\n",
      "  end-to-end latency  p50 ", jsonNum(latencyP50Ms), " ms, p99 ",
      jsonNum(latencyP99Ms), " ms\n",
      "  shed breakdown      queue_full=", shed.queueFull, " quota=",
      shed.quota, " deadline_at_enqueue=", shed.deadlineAtEnqueue,
      " deadline_miss=", shed.deadlineMiss, " circuit_open=",
      shed.circuitOpen, " shutdown=", shed.shutdown, "\n",
      "  admission           submitted=", submitted,
      " queue_depth_peak=", queueDepthPeak,
      " displaced=", displaced, " breaker_trips=", breakerTrips, "\n",
      "  throughput          ", strCat(throughputPerSecond), " req/s over ",
      strCat(wallSeconds), " s\n");
  if (!faultPlan.empty() || verifiedRuns > 0) {
    text += strCat("  chaos               plan=\"", faultPlan,
                   "\" verified=", verifiedRuns, " degraded=", degradedRuns,
                   " wrong_answers=", wrongAnswers, "\n");
  }
  return text;
}

}  // namespace sw::service
