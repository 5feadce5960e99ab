#include "tuning/tuning_db.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "support/digest.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"

namespace sw::tuning {

namespace fs = std::filesystem;

std::string canonicalTuneKey(const core::CodegenOptions& base,
                             const sunway::ArchConfig& arch,
                             const core::GemmProblem& problem) {
  // Every base field can steer the search (the analytic-default candidate
  // is the base schedule; hideLatency/useRma gate the depth-2 axis), so
  // the whole request key stays in — plus the DB schema version and the
  // problem shape.  The alpha/beta scalars never change the schedule.
  return strCat("swtune ", kTuningDbVersion, " ",
                core::canonicalRequestKey(base, arch), "shape ", problem.m,
                " ", problem.n, " ", problem.k, " ", problem.batch);
}

namespace {

void appendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Locate `"name":` in a JSON object and return the offset of the first
/// value character; npos when absent.
std::size_t valueOffset(const std::string& json, std::string_view name) {
  const std::string needle = strCat("\"", name, "\"");
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  pos = json.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::string::npos;
  ++pos;
  while (pos < json.size() &&
         std::isspace(static_cast<unsigned char>(json[pos])) != 0)
    ++pos;
  return pos < json.size() ? pos : std::string::npos;
}

std::int64_t parseIntField(const std::string& json, std::string_view name) {
  const std::size_t pos = valueOffset(json, name);
  if (pos == std::string::npos)
    throwInput(strCat("tuning record is missing field '", name, "'"));
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(json.c_str() + pos, &end, 10);
  if (end == json.c_str() + pos || errno == ERANGE)
    throwInput(strCat("tuning record field '", name, "' is not an integer"));
  return v;
}

double parseDoubleField(const std::string& json, std::string_view name) {
  const std::size_t pos = valueOffset(json, name);
  if (pos == std::string::npos)
    throwInput(strCat("tuning record is missing field '", name, "'"));
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + pos, &end);
  if (end == json.c_str() + pos || !std::isfinite(v))
    throwInput(strCat("tuning record field '", name,
                      "' is not a finite number"));
  return v;
}

bool parseBoolField(const std::string& json, std::string_view name) {
  const std::size_t pos = valueOffset(json, name);
  if (pos == std::string::npos)
    throwInput(strCat("tuning record is missing field '", name, "'"));
  if (json.compare(pos, 4, "true") == 0) return true;
  if (json.compare(pos, 5, "false") == 0) return false;
  throwInput(strCat("tuning record field '", name, "' is not a boolean"));
}

std::string parseStringField(const std::string& json, std::string_view name) {
  std::size_t pos = valueOffset(json, name);
  if (pos == std::string::npos || json[pos] != '"')
    throwInput(strCat("tuning record is missing string field '", name, "'"));
  ++pos;
  std::string out;
  while (pos < json.size() && json[pos] != '"') {
    if (json[pos] == '\\') {
      if (pos + 1 >= json.size())
        throwInput(strCat("tuning record string '", name, "' is truncated"));
      const char escape = json[pos + 1];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos + 5 >= json.size())
            throwInput(
                strCat("tuning record string '", name, "' is truncated"));
          out += static_cast<char>(
              std::strtol(json.substr(pos + 2, 4).c_str(), nullptr, 16));
          pos += 4;
          break;
        }
        default:
          throwInput(strCat("tuning record string '", name,
                            "' has an unknown escape"));
      }
      pos += 2;
    } else {
      out += json[pos++];
    }
  }
  if (pos >= json.size())
    throwInput(strCat("tuning record string '", name, "' is unterminated"));
  return out;
}

}  // namespace

TuningDb::TuningDb(std::string rootDir) : rootDir_(std::move(rootDir)) {}

std::string TuningDb::pathForKey(const std::string& key) const {
  if (rootDir_.empty()) return {};
  return (fs::path(rootDir_) / strCat("v", kTuningDbVersion) /
          (digestHex(fnv1a64(key)) + ".json"))
      .string();
}

std::string TuningDb::renderRecord(const std::string& key,
                                   const TunedScheduleRecord& record) {
  std::string out = "{";
  auto num = [&out](std::string_view name, std::int64_t v, bool first = false) {
    if (!first) out += ",";
    out += strCat("\"", name, "\":", v);
  };
  auto real = [&out](std::string_view name, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += strCat(",\"", name, "\":", buf);
  };
  auto str = [&out](std::string_view name, std::string_view v) {
    out += strCat(",\"", name, "\":\"");
    appendEscaped(out, v);
    out += "\"";
  };
  num("schema_version", kTuningDbVersion, /*first=*/true);
  str("key", key);
  num("tile_m", record.schedule.tileM);
  num("tile_n", record.schedule.tileN);
  num("tile_k", record.schedule.tileK);
  num("strip_factor", record.schedule.stripFactor);
  num("buffer_depth", record.schedule.bufferDepth);
  out += strCat(",\"edge_tiles\":",
                record.schedule.edgeTiles ? "true" : "false");
  num("micro_mr", record.schedule.microMr);
  num("micro_nr", record.schedule.microNr);
  num("sharded_groups", record.schedule.shardedGroups);
  real("gflops", record.gflops);
  real("measured_gflops", record.measuredGflops);
  str("verdict", record.verdict);
  num("candidates_enumerated", record.candidatesEnumerated);
  num("candidates_feasible", record.candidatesFeasible);
  num("candidates_validated", record.candidatesValidated);
  real("search_seconds", record.searchSeconds);
  out += "}";
  return out;
}

std::optional<TunedScheduleRecord> TuningDb::lookup(const std::string& key) {
  const std::string path = pathForKey(key);
  if (path.empty()) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ++stats_.misses;  // plain miss: never tuned (or dropped)
    return std::nullopt;
  }
  std::ostringstream body;
  body << in.rdbuf();
  const std::string content = body.str();

  bool stale = false;
  try {
    const std::int64_t version = parseIntField(content, "schema_version");
    if (version != kTuningDbVersion) {
      stale = true;
      throwInput(strCat("tuning record schema version ", version,
                        " != expected ", kTuningDbVersion));
    }
    if (parseStringField(content, "key") != key)
      throwInput("tuning record key mismatch (digest collision or stale "
                 "file)");
    TunedScheduleRecord record;
    record.schedule.tileM = parseIntField(content, "tile_m");
    record.schedule.tileN = parseIntField(content, "tile_n");
    record.schedule.tileK = parseIntField(content, "tile_k");
    record.schedule.stripFactor = parseIntField(content, "strip_factor");
    record.schedule.bufferDepth =
        static_cast<int>(parseIntField(content, "buffer_depth"));
    record.schedule.edgeTiles = parseBoolField(content, "edge_tiles");
    record.schedule.microMr =
        static_cast<int>(parseIntField(content, "micro_mr"));
    record.schedule.microNr =
        static_cast<int>(parseIntField(content, "micro_nr"));
    record.schedule.shardedGroups =
        static_cast<int>(parseIntField(content, "sharded_groups"));
    record.gflops = parseDoubleField(content, "gflops");
    record.measuredGflops = parseDoubleField(content, "measured_gflops");
    record.verdict = parseStringField(content, "verdict");
    record.candidatesEnumerated =
        static_cast<int>(parseIntField(content, "candidates_enumerated"));
    record.candidatesFeasible =
        static_cast<int>(parseIntField(content, "candidates_feasible"));
    record.candidatesValidated =
        static_cast<int>(parseIntField(content, "candidates_validated"));
    record.searchSeconds = parseDoubleField(content, "search_seconds");
    if (record.schedule.tileM <= 0 || record.schedule.tileN <= 0 ||
        record.schedule.tileK <= 0 || record.schedule.stripFactor <= 0 ||
        (record.schedule.bufferDepth != 1 &&
         record.schedule.bufferDepth != 2) ||
        record.schedule.microMr <= 0 || record.schedule.microNr <= 0 ||
        record.schedule.shardedGroups < 1 || record.gflops < 0.0)
      throwInput("tuning record carries an out-of-range schedule");
    ++stats_.hits;
    return record;
  } catch (const Error& e) {
    // Stale (version skew) and corrupt (everything else) both re-tune;
    // they are counted apart because version skew after an upgrade is
    // expected, a parse failure is not.
    ++(stale ? stats_.stale : stats_.corrupt);
    SW_WARN("tuning", "event=db_entry_", stale ? "stale" : "corrupt",
            " path=", path, " action=re-tune error=\"", e.what(), "\"");
    std::error_code ec;
    fs::remove(path, ec);  // best effort; the re-tune overwrites anyway
    return std::nullopt;
  }
}

void TuningDb::store(const std::string& key,
                     const TunedScheduleRecord& record) {
  const std::string path = pathForKey(key);
  if (path.empty()) return;
  try {
    fs::create_directories(fs::path(path).parent_path());
    // Atomic publish, same discipline as the kernel cache: full write to
    // a per-thread temp name in the directory, then rename over the final
    // path so readers never observe a partial record.
    static std::atomic<std::uint64_t> tmpCounter{0};
    const std::string tmpPath = strCat(path, ".tmp.", tmpCounter.fetch_add(1));
    {
      std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
      if (!out) throwInput(strCat("cannot open '", tmpPath, "'"));
      out << renderRecord(key, record) << "\n";
      out.flush();
      if (!out) throwInput(strCat("short write to '", tmpPath, "'"));
    }
    fs::rename(tmpPath, path);
    ++stats_.stores;
    SW_DEBUG("tuning", "event=db_entry_stored path=", path,
             " schedule=", record.schedule.label());
  } catch (const std::exception& e) {
    SW_WARN("tuning", "event=db_store_failed path=", path, " error=\"",
            e.what(), "\"");
  }
}

}  // namespace sw::tuning
