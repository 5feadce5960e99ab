#include "support/metrics.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

#include "support/histogram.h"

namespace sw::metrics {

double safeDiv(double numerator, double denominator) {
  if (!std::isfinite(numerator) || !std::isfinite(denominator) ||
      denominator <= 0.0)
    return 0.0;
  return numerator / denominator;
}

double safePct(double numerator, double denominator) {
  return 100.0 * safeDiv(numerator, denominator);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

void MetricsRegistry::add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] += delta;
}

double MetricsRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_.count(name) != 0;
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_.clear();
}

namespace {

bool endsWith(const std::string& name, const char* suffix) {
  const std::size_t len = std::string(suffix).size();
  return name.size() >= len &&
         name.compare(name.size() - len, len, suffix) == 0;
}

/// Value column with a unit inferred from the gauge name.
std::string formatValue(const std::string& name, double value) {
  char buf[64];
  if (endsWith(name, "_pct")) {
    std::snprintf(buf, sizeof(buf), "%12.1f %%", value);
  } else if (endsWith(name, "_bytes")) {
    std::snprintf(buf, sizeof(buf), "%12.1f KB", value / 1024.0);
  } else if (endsWith(name, "_ms")) {
    std::snprintf(buf, sizeof(buf), "%12.3f ms", value);
  } else if (endsWith(name, "_seconds")) {
    std::snprintf(buf, sizeof(buf), "%12.6f s", value);
  } else if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
             std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%12lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%12.3f", value);
  }
  return buf;
}

}  // namespace

std::string formatMetricsTable(const std::map<std::string, double>& gauges) {
  std::string out;
  std::string group;
  char line[160];
  for (const auto& [name, value] : gauges) {  // std::map: sorted by name
    const std::size_t dot = name.find('.');
    const std::string head = dot == std::string::npos ? "" : name.substr(0, dot);
    const std::string rest = dot == std::string::npos ? name : name.substr(dot + 1);
    if (head != group || out.empty()) {
      group = head;
      if (!out.empty()) out += '\n';
      out += group.empty() ? "(ungrouped)" : group;
      out += ":\n";
    }
    std::snprintf(line, sizeof(line), "  %-42s %s\n", rest.c_str(),
                  formatValue(name, value).c_str());
    out += line;
  }
  return out;
}

std::string formatHistogramTable(
    const std::map<std::string, Histogram>& histograms,
    const std::string& unit) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "  %-34s %8s %10s %10s %10s %10s (%s)\n",
                "histogram", "count", "p50", "p90", "p99", "max",
                unit.c_str());
  out += line;
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "  %-34s %8lld %10.3f %10.3f %10.3f %10.3f\n", name.c_str(),
                  static_cast<long long>(h.count()), h.percentile(50.0),
                  h.percentile(90.0), h.percentile(99.0), h.maxRecorded());
    out += line;
  }
  return out;
}

}  // namespace sw::metrics
