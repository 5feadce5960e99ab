// Simulated SW26010Pro time: one integer type for every simulated clock.
//
// The estimator's clock, each mesh CPE's clock, the DMA engines' busy-until
// times, reply completions, fault delays and stalls, the retry backoff and
// the sharded sums are all SimTime: int64 femtoseconds ("ticks").  A
// duration rounds to ticks once, where ArchConfig turns bytes or flops into
// time (at most 0.5 fs per op, against ops of 50 ns and up); everything
// after that is integer `+` and `max`.  Sums are therefore associative and
// exact, so totals do not depend on summation order, and a steady-state
// jump of R identical periods (`clock += R·Δ`) is bit-identical to stepping
// them.  Seconds appear only where results leave the model: RunOutcome,
// ShardedOutcome, PerfReport and trace spans.
//
// The range is 2^63 fs, about 9,223 s of simulated time.  Leaving it is an
// input limit, reported as ClockRangeError (an InputError), never a
// wraparound: every product and sum that can leave int64 goes through the
// checked helpers below.
#pragma once

#include <cmath>
#include <cstdint>

#include "support/error.h"

namespace sw::sunway {

using SimTime = std::int64_t;

inline constexpr SimTime kTicksPerSecond = 1'000'000'000'000'000;

/// Simulated time past the clock range; the CLI exits 2 on it.
class ClockRangeError : public InputError {
 public:
  using InputError::InputError;
};

[[noreturn]] inline void throwClockRange() {
  throw ClockRangeError(
      "simulated time leaves the clock range of ~9,223 s (int64 "
      "femtoseconds)");
}

[[nodiscard]] constexpr double toSeconds(SimTime ticks) {
  return static_cast<double>(ticks) / static_cast<double>(kTicksPerSecond);
}

/// `seconds` rounded to the nearest tick.
[[nodiscard]] inline SimTime ticksFromSeconds(double seconds) {
  const double ticks =
      std::nearbyint(seconds * static_cast<double>(kTicksPerSecond));
  // 2^63 is exactly representable; anything at or past it (or NaN) does
  // not fit.
  if (!(std::fabs(ticks) < 9223372036854775808.0)) throwClockRange();
  return static_cast<SimTime>(ticks);
}

/// a + b, or ClockRangeError when the sum leaves int64.
[[nodiscard]] inline SimTime addTicks(SimTime a, SimTime b) {
  SimTime sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) throwClockRange();
  return sum;
}

/// times · t, or ClockRangeError when the product leaves int64.
[[nodiscard]] inline SimTime mulTicks(std::int64_t times, SimTime t) {
  SimTime product = 0;
  if (__builtin_mul_overflow(times, t, &product)) throwClockRange();
  return product;
}

}  // namespace sw::sunway
