#pragma once

// Measurement plumbing shared by every workload of the benchmark: clocks,
// percentiles, process CPU and memory counters, result digests, the metric
// sheet printed at the end of a run, and the in-memory span tracer of the
// traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
/// empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of an unsorted sample.
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Percentile q of a latency sample, smoothed: the mean of the order
/// statistics whose rank lies within two binomial standard errors,
/// 2·sqrt(q(1−q)/n), of q. A plain percentile of the multimedia run sits on
/// the boundary between two per-application latency clusters, where a single
/// order statistic jumps between them from run to run; the band averages
/// over that uncertainty. For large samples it is the plain percentile.
[[nodiscard]] double latency_percentile(std::vector<double> values, double q);

/// User and system CPU seconds of this process so far (getrusage).
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  [[nodiscard]] double total() const { return user_s + sys_s; }
};
[[nodiscard]] CpuTimes cpu_times();

/// Process peak resident set size in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// FNV-1a 64-bit digest of a byte stream, printed as 16 hex digits. Used for
/// the committed expected results; independent of the library's own hashes.
class Digest {
 public:
  Digest& add(std::string_view bytes);
  Digest& add(std::int64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// One named metric of the result line. `measured` false marks a layer the
/// workload does not exercise (or whose trace failed its equivalence check);
/// its value prints as 0 and `reason` goes to the report on stderr.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool measured = true;
  std::string reason;
};

class MetricSheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void unmeasured(const std::string& name, const std::string& unit, const std::string& reason);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  /// {"name": {"value": v, "unit": u}, ...} in insertion order.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Spans recorded from the benchmark's own code around calls into each layer
/// (name, start, end, parent, and the op they belong to). Kept in memory and
/// written out once at the end. Thread-safe: the sweep records from two
/// workers.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t op = 0;      ///< op the span belongs to
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// RAII span: starts on construction, recorded on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t parent, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  [[nodiscard]] std::uint64_t next_op() { return next_op_.fetch_add(1) + 1; }

  /// Records a span whose times were observed elsewhere (e.g. from progress
  /// frames); returns its id.
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end);

  /// Summed duration of every span with this name.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Writes every span as JSON lines (times in microseconds since the first
  /// span) to `path`. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  void record(Span span);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_op_{0};
};

/// Replaces wall-clock second counts ("0.0123 s", "4.5e-05 s") and per-stage
/// timings with fixed tokens, the same scrub `sdfmap_client repeat` applies,
/// so daemon responses compare byte-for-byte.
[[nodiscard]] std::string scrub_timings(const std::string& text);

/// Expected results: "key value" lines, '#' comments.
using ExpectedMap = std::map<std::string, std::string>;
[[nodiscard]] bool read_expected(const std::string& path, ExpectedMap& out);
bool write_expected(const std::string& path, const ExpectedMap& values,
                    const std::string& header);

}  // namespace perfbench
