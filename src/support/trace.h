// Chrome trace-event tracer (Perfetto / chrome://tracing viewable).
//
// Two time bases share one trace file, separated by "process" id:
//   * real-clock compile spans (Span, RAII) — microseconds since the
//     tracer's epoch, stamped on the calling thread's lane; and
//   * simulated-clock runtime lanes — the mesh simulator and the symmetric
//     estimator stamp compute / DMA / RMA / stall / sync events on the
//     logical CPE clocks, one lane per CPE (64 for a full mesh) plus
//     side lanes for each CPE's DMA and RMA engines, so §6's
//     double-buffering overlap is directly visible in the UI.
//
// Tracing is off by default and costs one relaxed atomic load per call
// site.  Enable programmatically (Tracer::global().enable()) or by setting
// SWCODEGEN_TRACE in the environment (the CLI writes the collected trace
// to that path on exit; see tools/swcodegen_main.cc).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sw::trace {

/// Trace "process" ids: Perfetto groups lanes under these headers.
inline constexpr int kCompilePid = 1;    // real-clock compile spans
inline constexpr int kMeshPid = 2;       // mesh simulator lanes
inline constexpr int kEstimatorPid = 3;  // symmetric estimator lane

/// Lane-id offsets inside a simulator process: the CPE's own (compute)
/// lane is the bare CPE id; its DMA and RMA engines get side lanes.
inline constexpr int kDmaLaneOffset = 1000;
inline constexpr int kRmaLaneOffset = 2000;

/// One key/value attribute attached to an event ("args" in the format).
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

TraceArg arg(std::string key, std::string value);
TraceArg arg(std::string key, const char* value);
TraceArg arg(std::string key, std::int64_t value);
TraceArg arg(std::string key, double value);

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';  // 'X' complete, 'M' metadata
  int pid = kCompilePid;
  std::int64_t tid = 0;
  double tsMicros = 0.0;
  double durMicros = 0.0;
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  /// Process-wide tracer; auto-enabled when $SWCODEGEN_TRACE is set.
  static Tracer& global();

  void enable();
  void disable();
  [[nodiscard]] bool enabled() const;

  /// Drop all collected events and lane metadata (keeps the epoch).
  void clear();

  /// Real-clock microseconds since the tracer's construction.
  [[nodiscard]] double nowMicros() const;

  /// Record a complete ('X') event with explicit timestamps.
  void completeEvent(TraceEvent event);

  /// Record a simulated-clock span on `lane` of simulator process `pid`.
  void simSpan(int pid, std::int64_t lane, std::string name,
               std::string category, double startSeconds, double endSeconds,
               std::vector<TraceArg> args = {});

  /// Name a process / lane in the viewer (deduplicated).
  void setProcessName(int pid, const std::string& name);
  void setThreadName(int pid, std::int64_t tid, const std::string& name);

  [[nodiscard]] std::size_t eventCount() const;
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Serialise everything as a Chrome trace-event JSON object.
  [[nodiscard]] std::string toJson() const;
  void writeFile(const std::string& path) const;

 private:
  Tracer();

  mutable std::mutex mutex_;
  bool enabled_ = false;  // mirrored into the lock-free flag below
  std::vector<TraceEvent> events_;
  std::vector<std::string> namedLanes_;  // "pid/tid" dedup keys
  double epochMicros_ = 0.0;
};

/// Cheap enabled probe usable from hot paths.
[[nodiscard]] bool enabled();

/// Small dense id for the calling thread, used as the compile-span lane.
[[nodiscard]] std::int64_t currentThreadLane();

/// RAII real-clock span on the compile process.  Records on destruction;
/// attributes may be attached after construction via addArg.
class Span {
 public:
  explicit Span(std::string name, std::vector<TraceArg> args = {},
                std::string category = "compile");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void addArg(TraceArg a);

 private:
  bool active_ = false;
  std::string name_;
  std::string category_;
  std::vector<TraceArg> args_;
  double startMicros_ = 0.0;
};

}  // namespace sw::trace
