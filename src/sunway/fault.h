// Deterministic fault-injection plans for the SW26010Pro simulator.
//
// A FaultPlan describes which simulated operations fail and how: dropped or
// delayed DMA replies, delayed or lost RMA messages, stalled CPEs, and
// corrupted SPM tile bytes.  Every fault site is keyed by
// (cpe, op-class, occurrence) — the occurrence is the per-CPE ordinal of
// the operation within its class — so a failing run replays exactly.
// Probabilistic plans (`rate=`) derive the fire decision from a seeded hash
// of the same key and are therefore just as deterministic.
//
// The plan itself is immutable after parsing and safe to share across the
// 64 CPEs and across meshes on other threads; occurrence counters live in
// the per-CPE services.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunway/sim_time.h"

namespace sw::sunway {

/// Operation classes fault sites are keyed on (per-CPE ordinals).
enum class FaultOpClass { kDma, kRma, kSync };

enum class FaultKind {
  kDmaDropReply,  // finite count: wait fails transiently (retryable);
                  // count=forever: the reply never arrives (deadlock case)
  kDmaCorrupt,    // tile bytes corrupted in SPM, detected at the reply wait
                  // (simulated checksum); retryable
  kDmaDelay,      // completion pushed `seconds` later
  kRmaDropReply,  // finite count: the round arrives marked failed (clean
                  // ProtocolError at every receiver); count=forever: the
                  // message is lost and receivers park (deadlock case)
  kRmaDelay,      // transfer takes `seconds` longer (reordering emerges)
  kCpeStall,      // the CPE's logical clock stalls `seconds` at a barrier
};

[[nodiscard]] const char* toString(FaultKind kind);
[[nodiscard]] FaultOpClass opClassOf(FaultKind kind);

/// One fault rule.  Matches either an ordinal window
/// [occurrence, occurrence + count) — count < 0 meaning "forever" — or,
/// when `rate` > 0, a seeded Bernoulli draw per (cpe, op-class, occurrence)
/// site.
struct FaultSpec {
  FaultKind kind = FaultKind::kDmaDropReply;
  int cpe = -1;                 // linear CPE id; -1 matches every CPE
  std::int64_t occurrence = 0;  // first affected ordinal
  std::int64_t count = 1;       // ordinals affected; < 0 = all from `occurrence`
  double seconds = 0.0;         // delay / stall magnitude
  double rate = 0.0;            // > 0: probabilistic match instead of window
  std::uint64_t seed = 0;       // decorrelates probabilistic plans

  [[nodiscard]] bool permanent() const { return count < 0; }
  [[nodiscard]] bool matches(int cpeId, std::int64_t occ) const;
  [[nodiscard]] std::string describe() const;
};

/// What the simulator must do at one (cpe, op-class, occurrence) site.
struct FaultDecision {
  bool dropTransient = false;  // detected failure: wait throws TransientError
  bool dropPermanent = false;  // message lost forever: waiters hang
  bool corrupt = false;        // corrupt the landed tile, flag the slot
  SimTime delayTicks = 0;      // added to the message completion time
  SimTime stallTicks = 0;      // added to the CPE clock at the site
  int injected = 0;            // matched specs (feeds counters.faultsInjected)

  [[nodiscard]] bool any() const { return injected > 0; }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse the --inject grammar: semicolon-separated faults of the form
  ///   kind[:cpe=N|*][:occ=N][:count=N|forever][:seconds=X][:rate=P][:seed=N]
  /// with kind one of dma-drop, dma-corrupt, dma-delay, rma-drop,
  /// rma-delay, stall.  Throws InputError on malformed specs.
  static FaultPlan parse(const std::string& text);

  void add(FaultSpec spec) { specs_.push_back(spec); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] std::string describe() const;

  /// Pure decision for the `occurrence`-th op of `opClass` issued by CPE
  /// `cpe`; thread-safe (the plan is immutable).
  [[nodiscard]] FaultDecision decide(FaultOpClass opClass, int cpe,
                                     std::int64_t occurrence) const;

  /// Deterministically flip mantissa bits of a few elements of `tile`,
  /// keyed by the fault site, simulating an in-flight corruption.
  static void corruptTile(double* tile, std::int64_t words, int cpe,
                          std::int64_t occurrence);

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace sw::sunway
