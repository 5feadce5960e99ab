// Symbolic loop extents.
//
// After tiling, every loop the code generator emits has an extent of the
// form  constant + ceil(param/divisor)  (e.g. 8, 64, ceil(M/512),
// ceil(K/256)).  For the paper's padded shapes (§8.1) the division is
// exact; for arbitrary shapes the ceiling admits a final partial tile,
// whose DMA/compute extents are clamped at runtime by the edge-tile path.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace sw::sched {

class Extent {
 public:
  Extent() = default;

  static Extent constant(std::int64_t value) {
    Extent e;
    e.constant_ = value;
    return e;
  }
  /// ceil(param / divisor); exact when the parameter is a multiple.
  static Extent paramDiv(std::string param, std::int64_t divisor) {
    Extent e;
    e.param_ = std::move(param);
    e.divisor_ = divisor;
    return e;
  }

  [[nodiscard]] bool isConstant() const { return !param_.has_value(); }
  [[nodiscard]] std::int64_t constantPart() const { return constant_; }
  [[nodiscard]] const std::optional<std::string>& param() const {
    return param_;
  }
  [[nodiscard]] std::int64_t divisor() const { return divisor_; }

  [[nodiscard]] Extent plus(std::int64_t delta) const {
    Extent e = *this;
    e.constant_ += delta;
    return e;
  }

  [[nodiscard]] std::int64_t evaluate(
      const std::map<std::string, std::int64_t>& params) const;

  /// C text of the extent: `M/512`, exact at the padded shapes the paper
  /// prints, or with `ceiling` the `(M + 511)/512` that evaluate() takes,
  /// which edge-tile kernels need on any shape.
  [[nodiscard]] std::string toString(bool ceiling = false) const;

  bool operator==(const Extent&) const = default;

 private:
  std::int64_t constant_ = 0;
  std::optional<std::string> param_;
  std::int64_t divisor_ = 1;
};

}  // namespace sw::sched
