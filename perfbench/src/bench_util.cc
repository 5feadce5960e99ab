#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "tuning/tuner.h"

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  return sorted[rank - 1];
}

std::size_t Samples::beyond(double p) const {
  if (values_.empty()) return 0;
  const double n = static_cast<double>(values_.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  return values_.size() - rank;
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

const char* toString(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kNone: return "-";
  }
  return "-";
}

Usage readUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpuSeconds = static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                              usage.ru_stime.tv_usec);
  out.voluntarySwitches = usage.ru_nvcsw;
  out.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::next() {
  const std::size_t call = calls_++;
  if (cpus_.size() < 2 || call % kPerCpu != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(call / kPerCpu) % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

namespace {
thread_local std::vector<std::int64_t> openSpans;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name, request);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

std::int64_t Tracer::open(const char* name, std::int64_t request) {
  const std::int64_t parent = openSpans.empty() ? -1 : openSpans.back();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (request < 0 && parent >= 0)
      request = spans_[static_cast<std::size_t>(parent)].request;
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, nowSeconds(), -1.0, parent, request});
  }
  openSpans.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = nowSeconds();
  openSpans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t Tracer::record(const std::string& name, double start, double end,
                            std::int64_t parent, std::int64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

Samples Tracer::durations(const std::string& name) const {
  Samples out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_)
    if (span.name == name && span.end >= span.start)
      out.add(span.end - span.start);
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run sequentially on its thread (or are recorded
  // inside its interval), so the time they cover is the sum of their
  // durations.
  std::vector<double> childSeconds(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0 && span.end >= span.start)
      childSeconds[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) continue;
    Summary& s = out[span.name];
    ++s.count;
    s.totalSeconds += span.end - span.start;
    s.selfSeconds += std::max(0.0, span.end - span.start - childSeconds[i]);
  }
  return out;
}

std::string Tracer::toJson(const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]}";
  return out.str();
}

void WorkloadResult::fail(std::int64_t* counter, const std::string& what) {
  ++*counter;
  if (firstError.empty()) firstError = what;
}

double searchTuningList(const sw::sunway::ArchConfig& arch, Tracer* tracer,
                        WorkloadResult& result, double* rankOnlySeconds,
                        std::int64_t* feasible) {
  static const sw::core::GemmProblem kTuningList[] = {
      {1024, 1024, 1024, 1}, {100, 100, 100, 1}, {257, 63, 65, 1}};
  const sw::core::CodegenOptions base;
  double total = 0.0;
  for (const sw::core::GemmProblem& problem : kTuningList) {
    try {
      const double start = nowSeconds();
      sw::tuning::ScheduleSearchResult search;
      {
        const Tracer::Scope span(tracer, "tune.search");
        search = sw::tuning::searchSchedules(base, arch, problem);
      }
      total += nowSeconds() - start;
      if (!search.hasBest() || !(search.best().estimatedGflops > 0.0))
        result.fail(&result.wrong, "tuning search returned no schedule");
      if (feasible != nullptr) *feasible += search.feasibleCount();
      if (rankOnlySeconds != nullptr) {
        sw::tuning::TunerConfig rankOnly;
        rankOnly.validateTopN = 0;
        const double rankStart = nowSeconds();
        const Tracer::Scope span(tracer, "tune.rank");
        (void)sw::tuning::searchSchedules(base, arch, problem, rankOnly);
        *rankOnlySeconds += nowSeconds() - rankStart;
      }
    } catch (const std::exception& e) {
      result.fail(&result.threw, std::string("tuning search: ") + e.what());
    }
  }
  return total;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
