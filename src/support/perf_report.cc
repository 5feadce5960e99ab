#include "support/perf_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/format.h"
#include "support/metrics.h"

namespace sw::perf {

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON number that is always parseable: NaN/inf collapse to 0.
std::string jsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string jsonNumber(std::int64_t value) {
  return std::to_string(value);
}

std::string gbString(std::int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f GB",
                static_cast<double>(bytes) / 1e9);
  return buf;
}

std::string pctString(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", pct);
  return buf;
}

/// Bottleneck names, in attribution-bucket order.
constexpr const char* kBucketNames[] = {"compute", "exposed-dma",
                                        "exposed-rma", "sync", "retry",
                                        "other"};

/// The counter-backed sentence naming bucket `bucket` (an index into
/// kBucketNames) at `pct` of aggregate CPE time.
std::string bucketEvidence(int bucket, double pct, const RunSample& s) {
  const std::string share = pctString(pct);
  switch (bucket) {
    case 0:
      return strCat(share, " of aggregate CPE time computing (",
                    s.microKernelCalls, " micro-kernel calls, ",
                    jsonNumber(s.reportedFlops), " flops reported)");
    case 1:
      return strCat(share,
                    " of aggregate CPE time exposed waiting on DMA replies (",
                    s.dmaMessages, " messages, ", gbString(s.dmaBytes),
                    " moved, engine busy ", jsonNumber(s.dmaBusySeconds),
                    " s)");
    case 2:
      return strCat(share,
                    " of aggregate CPE time exposed waiting on RMA rounds (",
                    s.rmaBroadcastsSent, " broadcasts, ",
                    gbString(s.rmaBytesSent), " sent)");
    case 3:
      return strCat(share, " of aggregate CPE time at mesh barriers (",
                    s.syncs, " syncs)");
    case 4:
      return strCat(share, " of aggregate CPE time in retry backoff (",
                    s.dmaRetries, " DMA retries, ", s.faultsInjected,
                    " faults injected)");
    default:
      return strCat(share, " of aggregate CPE time in issue/spawn "
                    "overheads and model slack");
  }
}

}  // namespace

double MachineModel::ridgeFlopsPerByte() const {
  return metrics::safeDiv(peakGflops, peakDmaGBps);
}

PerfReport buildPerfReport(const RunSample& sample,
                           const MachineModel& machine) {
  PerfReport report;
  report.kernel = sample.kernel;
  report.engine = sample.engine;
  report.m = sample.m;
  report.n = sample.n;
  report.k = sample.k;
  report.batch = sample.batch;
  report.paddedM = sample.m;
  report.paddedN = sample.n;
  report.paddedK = sample.k;
  report.wallSeconds = sample.wallSeconds;
  report.dmaMessages = sample.dmaMessages;
  report.dmaBytes = sample.dmaBytes;
  report.rmaBroadcastsSent = sample.rmaBroadcastsSent;
  report.rmaBytesSent = sample.rmaBytesSent;
  report.syncs = sample.syncs;
  report.microKernelCalls = sample.microKernelCalls;
  report.faultsInjected = sample.faultsInjected;
  report.dmaRetries = sample.dmaRetries;

  // --- time attribution --------------------------------------------------
  // Aggregate CPE time: every one of the cpeCount simulated clocks ran for
  // the full wall clock, computing, stalled, or idle ("other", which also
  // absorbs spawn overhead and per-message issue costs).
  const double aggregate =
      sample.wallSeconds * static_cast<double>(sample.cpeCount);
  PerfReport::Attribution& a = report.attribution;
  if (aggregate > 0.0) {
    a.computePct = metrics::safePct(sample.computeSeconds, aggregate);
    a.exposedDmaPct = metrics::safePct(sample.dmaStallSeconds, aggregate);
    a.exposedRmaPct = metrics::safePct(sample.rmaStallSeconds, aggregate);
    a.syncPct = metrics::safePct(sample.syncStallSeconds, aggregate);
    a.retryPct = metrics::safePct(sample.retryStallSeconds, aggregate);
    double accounted = a.computePct + a.exposedDmaPct + a.exposedRmaPct +
                       a.syncPct + a.retryPct;
    if (accounted > 100.0) {
      // Model slack (e.g. a stall double-charged with a fault delay) can
      // push the accounted share past the wall clock; renormalise so the
      // invariant "buckets sum to 100" holds unconditionally.
      const double scale = 100.0 / accounted;
      a.computePct *= scale;
      a.exposedDmaPct *= scale;
      a.exposedRmaPct *= scale;
      a.syncPct *= scale;
      a.retryPct *= scale;
      accounted = 100.0;
    }
    a.otherPct = 100.0 - accounted;
  }

  // --- overlap -----------------------------------------------------------
  // safePct maps an idle engine (busy == 0) to 0%, never NaN.
  const double busy = sample.dmaBusySeconds + sample.rmaBusySeconds;
  report.overlapPct = metrics::safePct(
      std::clamp(busy - sample.waitStallSeconds, 0.0, busy), busy);

  // --- roofline ----------------------------------------------------------
  PerfReport::Roofline& r = report.roofline;
  r.peakGflops = machine.peakGflops;
  r.peakDmaGBps = machine.peakDmaGBps;
  r.ridgeFlopsPerByte = machine.ridgeFlopsPerByte();
  r.achievedGflops =
      metrics::safeDiv(sample.reportedFlops, sample.wallSeconds) / 1e9;
  // The estimator's counters cover one symmetric CPE; scale to the mesh.
  const double meshScale =
      sample.cpeCount > 0
          ? static_cast<double>(machine.meshSize) /
                static_cast<double>(sample.cpeCount)
          : 0.0;
  const double meshDmaBytes =
      static_cast<double>(sample.dmaBytes) * meshScale;
  r.achievedDmaGBps =
      metrics::safeDiv(meshDmaBytes, sample.wallSeconds) / 1e9;
  r.arithmeticIntensity =
      metrics::safeDiv(sample.reportedFlops, meshDmaBytes);
  const double memRoofGflops = r.arithmeticIntensity * machine.peakDmaGBps;
  r.ceilingGflops = machine.peakGflops > 0.0
                        ? std::min(machine.peakGflops, memRoofGflops)
                        : memRoofGflops;
  r.ceilingUtilization =
      metrics::safeDiv(r.achievedGflops, r.ceilingGflops);
  if (r.ceilingUtilization < kCeilingExplainsThreshold) {
    r.verdict = "latency-bound";
  } else if (memRoofGflops < machine.peakGflops) {
    r.verdict = "dma-bound";
  } else {
    r.verdict = "compute-bound";
  }

  // --- top bottleneck ----------------------------------------------------
  // Only the winning bucket's evidence sentence is formatted.
  const double shares[] = {a.computePct, a.exposedDmaPct, a.exposedRmaPct,
                           a.syncPct,    a.retryPct,      a.otherPct};
  int top = 0;
  for (int i = 1; i < 6; ++i)
    if (shares[i] > shares[top]) top = i;
  report.bottleneck.name = kBucketNames[top];
  report.bottleneck.evidence = bucketEvidence(top, shares[top], sample);
  return report;
}

std::string PerfReport::toJson() const {
  std::string out = "{";
  const auto field = [&out](const char* key, const std::string& value,
                            bool quoted = false, bool last = false) {
    out += '"';
    out += key;
    out += "\":";
    if (quoted) {
      out += '"';
      out += jsonEscape(value);
      out += '"';
    } else {
      out += value;
    }
    if (!last) out += ',';
  };
  field("schema_version", jsonNumber(static_cast<std::int64_t>(schemaVersion)));
  field("kernel", kernel, /*quoted=*/true);
  field("engine", engine, /*quoted=*/true);
  out += "\"shape\":{";
  field("m", jsonNumber(m));
  field("n", jsonNumber(n));
  field("k", jsonNumber(k));
  field("batch", jsonNumber(batch), false, /*last=*/true);
  out += "},\"padded_shape\":{";
  field("m", jsonNumber(paddedM));
  field("n", jsonNumber(paddedN));
  field("k", jsonNumber(paddedK), false, /*last=*/true);
  out += "},";
  field("wall_seconds", jsonNumber(wallSeconds));
  field("overlap_pct", jsonNumber(overlapPct));
  out += "\"attribution\":{";
  field("compute_pct", jsonNumber(attribution.computePct));
  field("exposed_dma_pct", jsonNumber(attribution.exposedDmaPct));
  field("exposed_rma_pct", jsonNumber(attribution.exposedRmaPct));
  field("sync_pct", jsonNumber(attribution.syncPct));
  field("retry_pct", jsonNumber(attribution.retryPct));
  field("other_pct", jsonNumber(attribution.otherPct), false, /*last=*/true);
  out += "},";
  out += "\"roofline\":{";
  field("achieved_gflops", jsonNumber(roofline.achievedGflops));
  field("peak_gflops", jsonNumber(roofline.peakGflops));
  field("achieved_dma_gbps", jsonNumber(roofline.achievedDmaGBps));
  field("peak_dma_gbps", jsonNumber(roofline.peakDmaGBps));
  field("arithmetic_intensity_flops_per_byte",
        jsonNumber(roofline.arithmeticIntensity));
  field("ridge_flops_per_byte", jsonNumber(roofline.ridgeFlopsPerByte));
  field("ceiling_gflops", jsonNumber(roofline.ceilingGflops));
  field("ceiling_utilization", jsonNumber(roofline.ceilingUtilization));
  field("verdict", roofline.verdict, /*quoted=*/true, /*last=*/true);
  out += "},";
  out += "\"bottleneck\":{";
  field("name", bottleneck.name, /*quoted=*/true);
  field("evidence", bottleneck.evidence, /*quoted=*/true, /*last=*/true);
  out += "},";
  out += "\"counters\":{";
  field("dma_messages", jsonNumber(dmaMessages));
  field("dma_bytes", jsonNumber(dmaBytes));
  field("rma_broadcasts", jsonNumber(rmaBroadcastsSent));
  field("rma_bytes", jsonNumber(rmaBytesSent));
  field("syncs", jsonNumber(syncs));
  field("micro_kernel_calls", jsonNumber(microKernelCalls));
  field("faults_injected", jsonNumber(faultsInjected));
  field("dma_retries", jsonNumber(dmaRetries), false, /*last=*/true);
  out += "},";
  out += "\"steady_state\":{";
  field("jumps", jsonNumber(steadyState.jumps));
  field("iterations_jumped", jsonNumber(steadyState.iterationsJumped));
  field("covered_pct", jsonNumber(steadyState.coveredPct));
  field("loop", steadyState.loop, /*quoted=*/true);
  field("period_iterations",
        jsonNumber(static_cast<std::int64_t>(steadyState.periodIterations)));
  field("period_seconds", jsonNumber(steadyState.periodSeconds));
  field("period_exposed_dma_pct",
        jsonNumber(steadyState.periodExposedDmaPct), false, /*last=*/true);
  out += "}}";
  return out;
}

std::string PerfReport::toText() const {
  std::string out;
  char line[240];
  std::snprintf(line, sizeof(line),
                "performance report (schema v%d): kernel '%s', %s engine\n",
                schemaVersion, kernel.c_str(), engine.c_str());
  out += line;
  if (m > 0) {
    if (batch > 0) {
      std::snprintf(line, sizeof(line),
                    "  shape                    %lldx%lldx%lld batch %lld\n",
                    static_cast<long long>(m), static_cast<long long>(n),
                    static_cast<long long>(k), static_cast<long long>(batch));
    } else {
      std::snprintf(line, sizeof(line),
                    "  shape                    %lldx%lldx%lld\n",
                    static_cast<long long>(m), static_cast<long long>(n),
                    static_cast<long long>(k));
    }
    out += line;
  }
  if (padded()) {
    std::snprintf(line, sizeof(line),
                  "  padded to                %lldx%lldx%lld\n",
                  static_cast<long long>(paddedM),
                  static_cast<long long>(paddedN),
                  static_cast<long long>(paddedK));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  simulated time           %12.3f ms\n",
                wallSeconds * 1e3);
  out += line;
  out += "time attribution (aggregate CPE time; buckets sum to 100%):\n";
  for (const Attribution::Row& row : attribution.rows()) {
    std::snprintf(line, sizeof(line), "  %-24s %12.1f %%\n", row.label,
                  row.pct);
    out += line;
  }
  out += "roofline:\n";
  std::snprintf(line, sizeof(line),
                "  %-24s %12.2f GFLOPS  (peak %.2f, %.1f%% of ceiling "
                "%.2f)\n",
                "achieved compute", roofline.achievedGflops,
                roofline.peakGflops, 100.0 * roofline.ceilingUtilization,
                roofline.ceilingGflops);
  out += line;
  std::snprintf(line, sizeof(line),
                "  %-24s %12.2f GB/s    (peak %.2f)\n", "achieved DMA",
                roofline.achievedDmaGBps, roofline.peakDmaGBps);
  out += line;
  std::snprintf(line, sizeof(line),
                "  %-24s %12.2f flops/byte  (ridge %.2f)\n",
                "arithmetic intensity", roofline.arithmeticIntensity,
                roofline.ridgeFlopsPerByte);
  out += line;
  std::snprintf(line, sizeof(line), "  %-24s %s\n", "verdict",
                roofline.verdict.c_str());
  out += line;
  std::snprintf(line, sizeof(line), "top bottleneck: %s — %s\n",
                bottleneck.name.c_str(), bottleneck.evidence.c_str());
  out += line;
  if (steadyState.jumps == 0) {
    out += "steady state: no fast-forward (every op stepped)\n";
    return out;
  }
  std::snprintf(line, sizeof(line),
                "steady state: %lld jumps over %lld loop iterations, "
                "%.3f%% of simulated time\n",
                static_cast<long long>(steadyState.jumps),
                static_cast<long long>(steadyState.iterationsJumped),
                steadyState.coveredPct);
  out += line;
  std::snprintf(line, sizeof(line),
                "  innermost jumped loop '%s': period %d iteration(s), "
                "%.3f us, exposed DMA %.1f%%\n",
                steadyState.loop.c_str(), steadyState.periodIterations,
                steadyState.periodSeconds * 1e6,
                steadyState.periodExposedDmaPct);
  out += line;
  return out;
}

}  // namespace sw::perf
