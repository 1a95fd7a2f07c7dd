#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <regex>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double latency_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double band = 2 * std::sqrt(q * (1 - q) / n);
  const auto lo = static_cast<std::size_t>(std::ceil(std::max(0.0, q - band) * (n - 1)));
  const auto hi = static_cast<std::size_t>(std::floor(std::min(1.0, q + band) * (n - 1)));
  if (lo >= hi) return quantile(std::move(values), q);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo + 1);
}

CpuTimes cpu_times() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return {};
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

Digest& Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ull;
  }
  // Field separator, so ("ab","c") and ("a","bc") differ.
  state_ ^= 0xff;
  state_ *= 0x100000001b3ull;
  return *this;
}

Digest& Digest::add(std::int64_t value) { return add(std::to_string(value)); }

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(state_));
  return buf;
}

void MetricSheet::set(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, unit, value, true, ""});
}

void MetricSheet::unmeasured(const std::string& name, const std::string& unit,
                             const std::string& reason) {
  metrics_.push_back(Metric{name, unit, 0, false, reason});
}

std::string MetricSheet::to_json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::uint64_t parent, std::uint64_t op)
    : tracer_(tracer) {
  if (!tracer_) return;
  span_.id = tracer_->next_id_.fetch_add(1) + 1;
  span_.parent = parent;
  span_.op = op;
  span_.name = std::move(name);
  span_.start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end = Clock::now();
  tracer_->record(std::move(span_));
}

std::uint64_t Tracer::add(std::string name, std::uint64_t parent, std::uint64_t op,
                          Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = next_id_.fetch_add(1) + 1;
  record(Span{id, parent, op, std::move(name), start, end});
  return id;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total_seconds(const std::string& name) const {
  const std::lock_guard<std::mutex> guard(mutex_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += seconds_between(s.start, s.end);
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> guard(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << std::fixed << std::setprecision(1);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"name\": \"" << s.name << "\", \"start_us\": " << us(s.start)
        << ", \"end_us\": " << us(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

std::string scrub_timings(const std::string& text) {
  static const std::regex timing("[0-9]+(\\.[0-9]+)?(e-?[0-9]+)? s");
  static const std::regex stage_timing("(binding|scheduling|slices|solver) [0-9.e+-]+");
  return std::regex_replace(std::regex_replace(text, timing, "T s"), stage_timing, "$1 T");
}

bool read_expected(const std::string& path, ExpectedMap& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = line.substr(space + 1);
  }
  return true;
}

bool write_expected(const std::string& path, const ExpectedMap& values,
                    const std::string& header) {
  std::ofstream out(path);
  if (!out) return false;
  out << header;
  for (const auto& [key, value] : values) out << key << " " << value << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
