// Persistent tuning database: tuned schedules survive the process.
//
// A search result worth keeping is a (request, problem shape) -> schedule
// mapping.  The database stores one JSON record per key under
// `<root>/v<version>/<key-digest>.json`, addressed by the same
// canonical-request-key machinery as the kernel cache: the tune key is the
// canonical rendering of every field the winner depends on — the base
// CodegenOptions with the *searched* fields normalized out, every
// ArchConfig field, the database schema version, and the problem shape.
// Records are published atomically (write to a temp name, rename over the
// final path) so concurrent readers never observe a partial file;
// corrupt, truncated, foreign or stale-version entries are logged,
// removed, and reported as a miss so the caller re-tunes.
//
// Counters (hits/misses/corrupt/stale/stores) are surfaced through
// stats(), which the service layer carries in KernelServiceStats.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/gemm_runner.h"
#include "core/options.h"
#include "sunway/arch.h"
#include "tuning/search_space.h"

namespace sw::tuning {

/// Bumped whenever the record layout or the meaning of a field changes;
/// readers treat other versions as stale and re-tune.  v2: records carry
/// the winner's MR x NR micro-kernel register block.  v3: records carry
/// the winner's sharded core-group count.
inline constexpr int kTuningDbVersion = 3;

/// One persisted search winner plus enough provenance to audit it.
struct TunedScheduleRecord {
  ScheduleCandidate schedule;
  /// Simulated GFLOPS the search credited the winner with (measured when
  /// validation was decisive, else the stage-1 estimate).
  double gflops = 0.0;
  /// Mesh-measured simulated GFLOPS, 0 when validation did not run.
  double measuredGflops = 0.0;
  /// Roofline verdict of the winner's perf report.
  std::string verdict;
  int candidatesEnumerated = 0;
  int candidatesFeasible = 0;
  int candidatesValidated = 0;
  double searchSeconds = 0.0;
};

/// Canonical, byte-stable key of one tuning decision: the base options
/// with the schedule axes the search owns (tile, strip, buffer depth,
/// edge tiles) normalized to sentinels — so requests differing only in
/// those axes share one DB entry — plus the full ArchConfig and the
/// problem shape.
[[nodiscard]] std::string canonicalTuneKey(const core::CodegenOptions& base,
                                           const sunway::ArchConfig& arch,
                                           const core::GemmProblem& problem);

struct TuningDbStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;     // plain misses (no file)
  std::int64_t corrupt = 0;    // unparsable/truncated/key-mismatch entries
  std::int64_t stale = 0;      // version-skewed entries
  std::int64_t stores = 0;
};

/// The on-disk tier.  Not internally locked: callers serialize concurrent
/// lookups per key (the service's single-flight does).  An empty root
/// disables persistence (lookup always misses, store is a no-op).
class TuningDb {
 public:
  explicit TuningDb(std::string rootDir);

  [[nodiscard]] const std::string& rootDir() const { return rootDir_; }

  /// The record stored for `key`, or nullopt on miss.  Corrupt and stale
  /// entries are logged, removed from disk, counted, and reported as a
  /// miss so the caller re-tunes.
  [[nodiscard]] std::optional<TunedScheduleRecord> lookup(
      const std::string& key);

  /// Atomically publish `record` under `key` (write-then-rename).  Store
  /// failures degrade to a cold database, never to a caller error.
  void store(const std::string& key, const TunedScheduleRecord& record);

  /// Absolute path the key's record lives at; empty without a root.
  [[nodiscard]] std::string pathForKey(const std::string& key) const;

  [[nodiscard]] const TuningDbStats& stats() const { return stats_; }

  /// Serialize a record to its JSON form (exposed for tests; the schema
  /// mirrors what lookup() parses).
  [[nodiscard]] static std::string renderRecord(
      const std::string& key, const TunedScheduleRecord& record);

 private:
  std::string rootDir_;
  TuningDbStats stats_;
};

}  // namespace sw::tuning
