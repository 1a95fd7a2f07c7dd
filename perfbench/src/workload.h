#pragma once

// The three workloads and what they share: run options, the end-to-end
// metric block, the strategy composed from its layers' public functions for
// the traced run, and the per-layer probes that re-run each op's final
// allocation.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "src/appmodel/application.h"
#include "src/mapping/strategy.h"
#include "src/platform/architecture.h"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  /// Directory of the committed expected results (default seed).
  std::string expected_dir;
  /// Scratch directory for stores, sockets and the span file.
  std::string work_dir;
  /// Regenerate the expected results instead of checking them.
  bool write_expected = false;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  MetricSheet metrics;
  /// Human-readable report lines (stderr).
  std::vector<std::string> report;

  /// Counts one failed op and records why.
  void fail(const std::string& why);
};

RunResult run_sweep(const RunOptions& options);
RunResult run_multimedia(const RunOptions& options);
RunResult run_daemon(const RunOptions& options);

/// What the measured stretches of a run observed. Work is measured in
/// windows (a sweep or multimedia pass, a second of daemon traffic); rates
/// are medians over windows, so a short stall of the shared host moves them
/// less than a whole-run mean.
struct OpSample {
  std::vector<double> op_seconds;  ///< one latency per op
  CpuTimes cpu;                    ///< CPU spent inside all windows
  std::vector<double> window_ops_per_s;
  std::vector<double> window_cpu_ms_per_op;
  double peak_rss_mb = 0;          ///< process peak at the end of the last window

  /// Records one window of `ops` completed ops.
  void add_window(std::size_t ops, double seconds, const CpuTimes& cpu_used);
};

/// Adds the end-to-end block: setup_s, ops_per_s, op_p50_ms, op_p90_ms,
/// cpu_ms_per_op, peak_rss_mb and ok_ratio (1 - failed/attempted).
void add_end_to_end(RunResult& result, const std::vector<double>& setup_seconds,
                    const OpSample& sample);

/// One final allocation kept for the per-layer probes: the platform it was
/// made on (what earlier allocations left) and the strategy's answer.
struct KeptAllocation {
  const sdfmap::ApplicationGraph* app = nullptr;
  sdfmap::Architecture arch;
  sdfmap::StrategyResult result;
};

/// The heuristic strategy of allocate_resources composed from its layers'
/// public functions in the strategy's order (lint gate, bind_actors +
/// rebalance_binding, construct_schedules, allocate_slices), one span each
/// under an "allocate" span (none when `tracer` is null). Unlike
/// allocate_resources it never flushes a persistent tier. The traced run
/// asserts it returns the same allocation as allocate_resources.
[[nodiscard]] sdfmap::StrategyResult composed_allocate(const sdfmap::ApplicationGraph& app,
                                                       const sdfmap::Architecture& arch,
                                                       const sdfmap::StrategyOptions& options,
                                                       Tracer* tracer, std::uint64_t op);

/// Derives the lint / binder / list_scheduler / slice_allocator metrics
/// from the tracer. `equivalent` false reports them unmeasured.
void add_strategy_layers(RunResult& result, const Tracer& tracer, long apps, long allocated,
                         long checks, bool equivalent, const std::string& why_not);

/// Re-runs the kept allocations through build_binding_aware_graph +
/// execute_constrained (uncached) and times the cache and store calls on the
/// results: constrained.*, cache.key_ns / hit_ns / insert_ns,
/// persistent_cache.append_us and io.parse_us (round trip of the models
/// through their text formats). Checks that every recomputed throughput
/// equals the achieved one; a mismatch is a failed op.
void add_probe_layers(RunResult& result, const std::vector<KeptAllocation>& kept,
                      const std::string& work_dir, bool parse_is_probe);

/// Marks every metric of `names` (with units) unmeasured for `reason`.
void add_unmeasured(RunResult& result,
                    const std::vector<std::pair<std::string, std::string>>& names,
                    const std::string& reason);

/// The service-layer metrics that only the daemon workload exercises.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& service_metric_names();

/// Adds proc.sys_cpu_share, over the windows of `plain` (the untraced run
/// the end-to-end metrics measure), and the trace overhead: the median
/// window rate of `untraced` over that of `traced`, two samples of the same
/// calls, run in alternating windows without and with the tracer.
void add_trace_overhead(RunResult& result, const OpSample& plain, const OpSample& untraced,
                        const OpSample& traced);

}  // namespace perfbench
