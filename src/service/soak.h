// Soak harness: replay millions of synthetic requests against the
// admission frontend, with fault-injection plans running as chaos.
//
// The workload models production kernel-service traffic: a small catalog
// of distinct kernel signatures requested with Zipfian popularity (a few
// hot shapes dominate, a long tail of cold ones), issued by closed-loop
// client threads that each keep a window of outstanding requests so the
// admission queue sees real depth.  Tenants rotate per request and a
// slice of the traffic runs at elevated priority, exercising quotas and
// the displacement path.
//
// Chaos: every `verifyEvery`-th issued request on client 0 additionally executes a
// small functional mesh run through ServiceFrontend::runGuarded with the
// configured fault plan active, and checks the recovered result
// bit-for-bit against a fault-free baseline of the same schedule.  A
// degraded completion (different schedule or estimator-only) is counted,
// not compared — but an estimator completion whose output is not the
// promised zero-fill counts as a wrong answer, as does any bit mismatch
// on a clean completion.  The soak's headline invariant is zero wrong
// answers under load + chaos.
//
// The report carries p50/p99 queue-wait and end-to-end latency, hit rate,
// shed rate (per cause), breaker trips and the chaos verdicts, as text
// and as schema-stable JSON (bench_soak, `swcodegen --soak`, and the CI
// soak smoke all consume it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/service_frontend.h"
#include "sunway/fault.h"

namespace sw::service {

struct SoakConfig {
  std::int64_t requests = 1'000'000;

  /// Closed-loop client threads and the outstanding-request window each
  /// keeps open (window * threads must exceed queue depth + workers for
  /// queue-full shedding to be reachable).
  int clientThreads = 4;
  int clientWindow = 32;

  /// Distinct kernel signatures in the catalog (capped at 96 generated
  /// variants) and the Zipf exponent of their popularity.
  int catalogSize = 24;
  double zipfExponent = 1.1;
  unsigned seed = 1;

  std::vector<std::string> tenants = {"tenant-a", "tenant-b", "tenant-c"};

  /// Per-request deadline budget; infinity disables deadlines.
  double deadlineSeconds = 0.25;

  /// Every Nth issued request on client 0 also runs a chaos-verified
  /// functional mesh run (issued, not completed, so heavy shedding cannot
  /// starve verification); 0 disables verification.
  int verifyEvery = 0;
  std::shared_ptr<const sunway::FaultPlan> chaosPlan;

  AdmissionConfig admission;
};

struct SoakShed {
  std::int64_t queueFull = 0;
  std::int64_t quota = 0;
  std::int64_t deadlineAtEnqueue = 0;
  std::int64_t deadlineMiss = 0;
  std::int64_t circuitOpen = 0;
  std::int64_t shutdown = 0;

  [[nodiscard]] std::int64_t total() const {
    return queueFull + quota + deadlineAtEnqueue + deadlineMiss +
           circuitOpen + shutdown;
  }
};

struct SoakReport {
  static constexpr int kSchemaVersion = 1;

  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;  // served, but the pipeline threw
  SoakShed shed;
  double shedRate = 0.0;  // shed.total() / offered
  double hitRate = 0.0;   // cache-served fraction of the soak's requests

  double queueWaitP50Ms = 0.0;
  double queueWaitP99Ms = 0.0;
  double queueWaitMaxMs = 0.0;
  double latencyP50Ms = 0.0;
  double latencyP99Ms = 0.0;
  double deadlineMs = 0.0;  // the configured budget, for SLO checks

  std::int64_t verifiedRuns = 0;
  std::int64_t degradedRuns = 0;
  std::int64_t wrongAnswers = 0;
  std::string faultPlan;  // human description; empty without chaos

  std::int64_t breakerTrips = 0;
  std::int64_t submitted = 0;  // FrontendStats::submitted
  std::int64_t queueDepthPeak = 0;
  std::int64_t displaced = 0;

  double wallSeconds = 0.0;
  double throughputPerSecond = 0.0;

  /// The frontend's stats() (submitted, completed, failed,
  /// queue_depth_peak) plus the change over the soak of each failure-path
  /// service.admission.* registry event that moved, sorted by name: the
  /// JSON report's service_admission_metrics.
  std::vector<std::pair<std::string, double>> admissionGauges;

  [[nodiscard]] std::string toJson() const;
  [[nodiscard]] std::string toText() const;
};

/// Deterministic catalog of compileable option variants (tile shapes
/// crossed with micro-kernel / RMA / fusion / batch toggles — all
/// feasible under the §3.2 constraints); `size` is clamped to [1, 96].
[[nodiscard]] std::vector<core::CodegenOptions> soakCatalog(int size);

/// Run the soak against `service` (whose caches persist across the run —
/// pre-warmed services report higher hit rates).  Constructs its own
/// ServiceFrontend from config.admission.
[[nodiscard]] SoakReport runSoak(KernelService& service,
                                 const SoakConfig& config);

}  // namespace sw::service
