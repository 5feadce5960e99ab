// serving_mix: two closed-loop client threads, each keeping a window of
// outstanding ServiceFrontend::submitCompile futures open against a fresh
// KernelService (memory tier only, no quotas, no deadline).
//
// Requests draw from service::soakCatalog(96) with Zipf(1.1) popularity
// and the LRU holds 32 entries, so steady state mixes memory hits,
// evictions, single-flight joins and cold pipeline runs: a long-lived
// service's cache reads beside cache writes.  It exercises admission, the
// queue, the worker pool, request keying and the LRU, and never touches
// the mesh; the estimator runs only in setup, to rate the catalog.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <random>
#include <thread>

#include "bench.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "service/service_frontend.h"
#include "service/soak.h"
#include "support/digest.h"
#include "support/error.h"

namespace perfbench {
namespace {

using sw::service::CompileResponse;
using sw::service::ServeOutcome;

constexpr int kCatalogSize = 96;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kLruEntries = 32;
constexpr int kClients = 2;
constexpr std::size_t kWindow = 8;
constexpr int kWindows = 8;

/// P(rank) proportional to 1 / (rank + 1)^s, drawn from the CDF.
class Zipf {
 public:
  Zipf(int n, double exponent) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(rank + 1.0, exponent);
      cdf_[static_cast<std::size_t>(rank)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One client's view of a window, merged after the clients join.
struct ClientTotals {
  WorkloadResult result;
  Samples queueWaitMs, hitServeUs, missServeMs;
};

/// What the traced windows add up to: per-response samples and the
/// services' KernelServiceStats and FrontendStats.
struct LayerTotals {
  Samples queueWaitMs, hitServeUs, missServeMs;
  std::int64_t requests = 0, hits = 0, compiles = 0, shared = 0, evictions = 0;
  std::int64_t queueDepthPeak = 0;
};

class ServingMix : public Workload {
 public:
  explicit ServingMix(const RunOptions& options)
      : options_(options),
        workers_(std::max(1, std::min(2, options.nproc - kClients))),
        zipf_(kCatalogSize, kZipfExponent) {
    for (int id = 0; id < kClients; ++id)
      clientRngs_.emplace_back(options.seed * 0x9e3779b97f4a7c15ull +
                               static_cast<std::uint64_t>(id));
  }

  void setup(WorkloadResult& result) override {
    // Oracle digests: every served kernel's CPE source must equal a direct
    // compile of the same options.  The catalog's simulated GFLOPS at
    // 1024^3 form the workload's fixed (kernel, shape) set.
    catalog_ = sw::service::soakCatalog(kCatalogSize);
    digests_.clear();
    result.simGflops.clear();
    CpuRotation rotation;
    for (const sw::core::CodegenOptions& options : catalog_) {
      rotation.next();
      const double start = nowSeconds();
      const sw::core::CompiledKernel kernel = compiler_.compile(options);
      result.compileMs.add((nowSeconds() - start) * 1e3);
      digests_.push_back(sw::fnv1a64(kernel.cpeSource));
      const sw::core::GemmProblem problem{1024, 1024, 1024,
                                          options.batched ? 2 : 1};
      result.simGflops.push_back(
          sw::core::estimateGemm(kernel, compiler_.arch(), problem).gflops);
    }
  }

  int windows(double /*seconds*/) const override { return kWindows; }

  /// One window runs against a fresh service and frontend, so every window
  /// starts from the same cold LRU; the clients' generators carry over.
  void window(double seconds, std::int64_t maxRequests, Tracer* tracer,
              WorkloadResult& result) override {
    sw::service::KernelServiceConfig serviceConfig;
    serviceConfig.maxEntries = kLruEntries;
    sw::service::KernelService service(compiler_.arch(), serviceConfig);
    sw::service::AdmissionConfig admission;
    admission.workers = workers_;
    sw::service::ServiceFrontend frontend(service, admission);

    std::atomic<std::int64_t> issued{0};
    std::vector<ClientTotals> clients(kClients);
    const double start = nowSeconds();
    const auto client = [&](int id) {
      std::mt19937_64& rng = clientRngs_[static_cast<std::size_t>(id)];
      ClientTotals& totals = clients[static_cast<std::size_t>(id)];
      struct Pending {
        std::future<CompileResponse> future;
        std::size_t index;
        double submitted;
        std::int64_t request;
      };
      std::deque<Pending> window;
      for (;;) {
        if (nowSeconds() - start >= seconds) break;
        const std::int64_t request = issued.fetch_add(1);
        if (maxRequests > 0 && request >= maxRequests) break;
        const std::size_t index = zipf_(rng);
        ++totals.result.attempted;
        try {
          const double submitted = nowSeconds();
          window.push_back({frontend.submitCompile(catalog_[index], {}), index,
                            submitted, request});
        } catch (const std::exception& e) {
          totals.result.fail(&totals.result.shed,
                             std::string("submit: ") + e.what());
        }
        if (window.size() >= kWindow) {
          settle(window.front().future, window.front().index,
                 window.front().submitted, window.front().request, tracer,
                 totals);
          window.pop_front();
        }
      }
      for (Pending& p : window)
        settle(p.future, p.index, p.submitted, p.request, tracer, totals);
    };
    std::vector<std::thread> threads;
    for (int id = 0; id < kClients; ++id) threads.emplace_back(client, id);
    for (std::thread& t : threads) t.join();
    frontend.shutdown();
    result.streamSeconds += nowSeconds() - start;

    for (const ClientTotals& c : clients) {
      result.attempted += c.result.attempted;
      result.threw += c.result.threw;
      result.wrong += c.result.wrong;
      result.shed += c.result.shed;
      if (result.firstError.empty()) result.firstError = c.result.firstError;
      result.latencyMs.append(c.result.latencyMs);
      if (tracer == nullptr) continue;
      layers_.queueWaitMs.append(c.queueWaitMs);
      layers_.hitServeUs.append(c.hitServeUs);
      layers_.missServeMs.append(c.missServeMs);
    }
    if (tracer == nullptr) return;
    const sw::service::KernelServiceStats stats = service.stats();
    layers_.requests += stats.requests;
    layers_.hits += stats.memoryHits + stats.shared;
    layers_.compiles += stats.compiles;
    layers_.shared += stats.shared;
    layers_.evictions += stats.evictions;
    layers_.queueDepthPeak = std::max<std::int64_t>(
        layers_.queueDepthPeak,
        static_cast<std::int64_t>(frontend.stats().queueDepthPeak));
  }

  void finishTrace(Tracer& /*tracer*/, WorkloadResult& result) override {
    const LayerTotals& t = layers_;
    const double requests = std::max<double>(1.0, static_cast<double>(t.requests));
    const auto per1k = [requests](std::int64_t count) {
      return 1000.0 * static_cast<double>(count) / requests;
    };
    MetricMap& layers = result.layers;
    layers["admission.queue_wait_ms_p50"] = {t.queueWaitMs.median(), "ms",
                                             Clock::kHost,
                                             "CompileResponse.queueWaitSeconds"};
    layers["admission.queue_wait_ms_p99"] = {t.queueWaitMs.percentile(99.0),
                                             "ms", Clock::kHost,
                                             "CompileResponse.queueWaitSeconds"};
    layers["admission.queue_depth_peak"] = {
        static_cast<double>(t.queueDepthPeak), "count", Clock::kNone,
        "FrontendStats.queueDepthPeak"};
    layers["service.hit_rate"] = {static_cast<double>(t.hits) / requests,
                                  "ratio", Clock::kNone, "KernelServiceStats"};
    layers["service.compiles_per_1k"] = {per1k(t.compiles), "per_1k",
                                         Clock::kNone,
                                         "pipeline runs per 1000 requests"};
    layers["service.shared_per_1k"] = {per1k(t.shared), "per_1k", Clock::kNone,
                                       "single-flight joins per 1000 requests"};
    layers["service.evictions_per_1k"] = {per1k(t.evictions), "per_1k",
                                          Clock::kNone,
                                          "LRU evictions per 1000 requests"};
    layers["service.hit_us_p50"] = {t.hitServeUs.median(), "us", Clock::kHost,
                                    "memory hits: total - queue wait"};
    layers["service.miss_ms_p50"] = {t.missServeMs.median(), "ms",
                                     Clock::kHost,
                                     "cold compiles: total - queue wait"};
    layers_ = LayerTotals{};
  }

  std::int64_t companionRequests() const override { return 4000; }

 private:
  void settle(std::future<CompileResponse>& future, std::size_t index,
              double submitted, std::int64_t request, Tracer* tracer,
              ClientTotals& totals) const {
    try {
      const CompileResponse response = future.get();
      totals.result.latencyMs.add(response.totalSeconds * 1e3);
      totals.queueWaitMs.add(response.queueWaitSeconds * 1e3);
      const double serve = response.totalSeconds - response.queueWaitSeconds;
      if (response.outcome == ServeOutcome::kMemoryHit) {
        totals.hitServeUs.add(serve * 1e6);
      } else if (response.outcome == ServeOutcome::kCompiled) {
        totals.missServeMs.add(serve * 1e3);
      }
      if (response.kernel == nullptr ||
          sw::fnv1a64(response.kernel->cpeSource) != digests_[index])
        totals.result.fail(&totals.result.wrong,
                           "served kernel differs from a direct compile");
      if (tracer != nullptr) {
        const double queued = submitted + response.queueWaitSeconds;
        const double done = submitted + response.totalSeconds;
        const std::int64_t parent =
            tracer->record("serving.request", submitted, done, -1, request);
        tracer->record("admission.queue_wait", submitted, queued, parent,
                       request);
        tracer->record(std::string("service.") +
                           sw::service::toString(response.outcome),
                       queued, done, parent, request);
      }
    } catch (const sw::OverloadError& e) {
      totals.result.fail(&totals.result.shed, e.what());
    } catch (const std::exception& e) {
      totals.result.fail(&totals.result.threw, e.what());
    }
  }

  RunOptions options_;
  int workers_;
  Zipf zipf_;
  sw::core::SwGemmCompiler compiler_;
  std::vector<sw::core::CodegenOptions> catalog_;
  std::vector<std::uint64_t> digests_;
  std::vector<std::mt19937_64> clientRngs_;  // one per client, kept across windows
  LayerTotals layers_;
};

}  // namespace

std::unique_ptr<Workload> makeServingMix(const RunOptions& options) {
  return std::make_unique<ServingMix>(options);
}

}  // namespace perfbench
