#include "sunway/fault.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/error.h"

namespace sw::sunway {
namespace {

// splitmix64 — deterministic avalanche mix for the probabilistic draws and
// the corruption pattern.  Chosen over std::hash because its output is
// specified, so rate-based plans replay identically across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t siteHash(std::uint64_t seed, FaultOpClass opClass, int cpe,
                       std::int64_t occurrence) {
  std::uint64_t h = mix64(seed ^ 0x5157434f44454745ULL);
  h = mix64(h ^ static_cast<std::uint64_t>(opClass));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(cpe)));
  h = mix64(h ^ static_cast<std::uint64_t>(occurrence));
  return h;
}

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kDmaDropReply, "dma-drop"}, {FaultKind::kDmaCorrupt, "dma-corrupt"},
    {FaultKind::kDmaDelay, "dma-delay"},    {FaultKind::kRmaDropReply, "rma-drop"},
    {FaultKind::kRmaDelay, "rma-delay"},    {FaultKind::kCpeStall, "stall"},
};

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::int64_t parseInt(const std::string& value, const std::string& field,
                      const std::string& spec) {
  try {
    std::size_t pos = 0;
    std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw InputError("fault spec '" + spec + "': field '" + field +
                     "' wants an integer, got '" + value + "'");
  }
}

double parseDouble(const std::string& value, const std::string& field,
                   const std::string& spec) {
  try {
    std::size_t pos = 0;
    double v = std::stod(value, &pos);
    if (pos != value.size() || !std::isfinite(v)) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw InputError("fault spec '" + spec + "': field '" + field +
                     "' wants a number, got '" + value + "'");
  }
}

FaultSpec parseOne(const std::string& raw) {
  const std::string spec = trimmed(raw);
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }

  FaultSpec out;
  bool known = false;
  for (const KindName& k : kKindNames) {
    if (parts[0] == k.name) {
      out.kind = k.kind;
      known = true;
      break;
    }
  }
  if (!known) {
    throw InputError(
        "fault spec '" + spec + "': unknown fault kind '" + parts[0] +
        "' (expected one of dma-drop, dma-corrupt, dma-delay, rma-drop, "
        "rma-delay, stall)");
  }

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw InputError("fault spec '" + spec + "': expected field=value, got '" +
                       part + "'");
    }
    const std::string field = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (field == "cpe") {
      out.cpe = value == "*"
                    ? -1
                    : static_cast<int>(parseInt(value, field, spec));
      if (out.cpe < -1) {
        throw InputError("fault spec '" + spec + "': cpe must be >= 0 or *");
      }
    } else if (field == "occ") {
      out.occurrence = parseInt(value, field, spec);
      if (out.occurrence < 0) {
        throw InputError("fault spec '" + spec + "': occ must be >= 0");
      }
    } else if (field == "count") {
      out.count = value == "forever" ? -1 : parseInt(value, field, spec);
      if (out.count == 0) {
        throw InputError("fault spec '" + spec +
                         "': count must be positive or 'forever'");
      }
    } else if (field == "seconds") {
      out.seconds = parseDouble(value, field, spec);
      if (out.seconds <= 0.0) {
        throw InputError("fault spec '" + spec + "': seconds must be > 0");
      }
      if (!(out.seconds <
            toSeconds(std::numeric_limits<SimTime>::max()))) {
        throw InputError("fault spec '" + spec +
                         "': seconds must stay inside the ~9,223 s "
                         "simulated clock range");
      }
    } else if (field == "rate") {
      out.rate = parseDouble(value, field, spec);
      if (out.rate <= 0.0 || out.rate > 1.0) {
        throw InputError("fault spec '" + spec + "': rate must be in (0, 1]");
      }
    } else if (field == "seed") {
      out.seed = static_cast<std::uint64_t>(parseInt(value, field, spec));
    } else {
      throw InputError("fault spec '" + spec + "': unknown field '" + field +
                       "' (expected cpe, occ, count, seconds, rate, seed)");
    }
  }

  const bool needsSeconds = out.kind == FaultKind::kDmaDelay ||
                            out.kind == FaultKind::kRmaDelay ||
                            out.kind == FaultKind::kCpeStall;
  if (needsSeconds && out.seconds <= 0.0) {
    throw InputError("fault spec '" + spec + "': kind '" + toString(out.kind) +
                     "' requires seconds=X with X > 0");
  }
  return out;
}

}  // namespace

const char* toString(FaultKind kind) {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "?";
}

FaultOpClass opClassOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDmaDropReply:
    case FaultKind::kDmaCorrupt:
    case FaultKind::kDmaDelay:
      return FaultOpClass::kDma;
    case FaultKind::kRmaDropReply:
    case FaultKind::kRmaDelay:
      return FaultOpClass::kRma;
    case FaultKind::kCpeStall:
      return FaultOpClass::kSync;
  }
  return FaultOpClass::kDma;
}

bool FaultSpec::matches(int cpeId, std::int64_t occ) const {
  if (cpe != -1 && cpe != cpeId) return false;
  if (rate > 0.0) {
    // Seeded Bernoulli draw on the site key: deterministic per run and
    // uncorrelated across (cpe, occurrence) pairs.
    const std::uint64_t h = siteHash(seed, opClassOf(kind), cpeId, occ);
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
    return u < rate;
  }
  if (occ < occurrence) return false;
  return permanent() || occ < occurrence + count;
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << toString(kind);
  if (cpe >= 0) os << ":cpe=" << cpe;
  if (rate > 0.0) {
    os << ":rate=" << rate << ":seed=" << seed;
  } else {
    if (occurrence != 0) os << ":occ=" << occurrence;
    if (permanent()) {
      os << ":count=forever";
    } else if (count != 1) {
      os << ":count=" << count;
    }
  }
  if (seconds > 0.0) os << ":seconds=" << seconds;
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t semi = text.find(';', start);
    const std::string piece = trimmed(
        semi == std::string::npos ? text.substr(start)
                                  : text.substr(start, semi - start));
    if (!piece.empty()) plan.add(parseOne(piece));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  if (plan.empty()) {
    throw InputError("fault plan '" + text + "' contains no fault specs");
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultSpec& spec : specs_) {
    if (!out.empty()) out += ";";
    out += spec.describe();
  }
  return out;
}

FaultDecision FaultPlan::decide(FaultOpClass opClass, int cpe,
                                std::int64_t occurrence) const {
  FaultDecision d;
  for (const FaultSpec& spec : specs_) {
    if (opClassOf(spec.kind) != opClass) continue;
    if (!spec.matches(cpe, occurrence)) continue;
    ++d.injected;
    switch (spec.kind) {
      case FaultKind::kDmaDropReply:
      case FaultKind::kRmaDropReply:
        if (spec.permanent() && spec.rate <= 0.0) {
          d.dropPermanent = true;
        } else {
          d.dropTransient = true;
        }
        break;
      case FaultKind::kDmaCorrupt:
        d.corrupt = true;
        break;
      case FaultKind::kDmaDelay:
      case FaultKind::kRmaDelay:
        d.delayTicks = addTicks(d.delayTicks, ticksFromSeconds(spec.seconds));
        break;
      case FaultKind::kCpeStall:
        d.stallTicks = addTicks(d.stallTicks, ticksFromSeconds(spec.seconds));
        break;
    }
  }
  return d;
}

void FaultPlan::corruptTile(double* tile, std::int64_t words, int cpe,
                            std::int64_t occurrence) {
  if (tile == nullptr || words <= 0) return;
  // Flip low mantissa bits of a handful of elements.  The positions and the
  // flipped bits depend only on the site key, so a replayed run corrupts the
  // same bytes the same way.
  const std::int64_t hits = words < 4 ? words : 4;
  for (std::int64_t i = 0; i < hits; ++i) {
    const std::uint64_t h =
        siteHash(0xc0bb1edULL + static_cast<std::uint64_t>(i),
                 FaultOpClass::kDma, cpe, occurrence);
    const std::int64_t at = static_cast<std::int64_t>(h % static_cast<std::uint64_t>(words));
    std::uint64_t bits;
    std::memcpy(&bits, &tile[at], sizeof(bits));
    bits ^= (1ULL << (h % 23));  // low mantissa bits only: value stays finite
    std::memcpy(&tile[at], &bits, sizeof(bits));
  }
}

}  // namespace sw::sunway
