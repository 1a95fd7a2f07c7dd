#include <algorithm>
#include <filesystem>
#include <sstream>

#include "check.h"
#include "src/analysis/cache.h"
#include "src/analysis/error.h"
#include "src/analysis/persistent_cache.h"
#include "src/io/app_format.h"
#include "src/lint/lint.h"
#include "src/mapping/binder.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/slice_allocator.h"
#include "src/sdf/repetition_vector.h"
#include "workload.h"

namespace perfbench {

using namespace sdfmap;

void RunResult::fail(const std::string& why) {
  ++failed;
  if (report.size() < 64) report.push_back("FAILED op: " + why);
}

void OpSample::add_window(std::size_t ops, double seconds, const CpuTimes& cpu_used) {
  cpu.user_s += cpu_used.user_s;
  cpu.sys_s += cpu_used.sys_s;
  if (ops > 0 && seconds > 0) {
    window_ops_per_s.push_back(static_cast<double>(ops) / seconds);
    window_cpu_ms_per_op.push_back(1e3 * cpu_used.total() / static_cast<double>(ops));
  }
  peak_rss_mb = std::max(peak_rss_mb, perfbench::peak_rss_mb());
}

void add_end_to_end(RunResult& result, const std::vector<double>& setup_seconds,
                    const OpSample& sample) {
  result.metrics.set("setup_s", median(setup_seconds), "s");
  result.metrics.set("ops_per_s", median(sample.window_ops_per_s), "1/s");
  result.metrics.set("op_p50_ms", 1e3 * latency_percentile(sample.op_seconds, 0.5), "ms");
  result.metrics.set("op_p90_ms", 1e3 * latency_percentile(sample.op_seconds, 0.9), "ms");
  result.metrics.set("cpu_ms_per_op", median(sample.window_cpu_ms_per_op), "ms");
  result.metrics.set("peak_rss_mb", sample.peak_rss_mb, "MiB");
  const double attempted = static_cast<double>(std::max(result.attempted, 1L));
  result.metrics.set("ok_ratio", 1.0 - static_cast<double>(result.failed) / attempted, "ratio");
}

StrategyResult composed_allocate(const ApplicationGraph& app, const Architecture& arch,
                                 const StrategyOptions& options, Tracer* tracer,
                                 std::uint64_t op) {
  StrategyResult result;
  const Tracer::Scope allocate(tracer, "allocate", 0, op);
  try {
    {
      const Tracer::Scope span(tracer, "lint", allocate.id(), op);
      result.stage = "lint";
      LintInput input;
      input.app = &app;
      input.platform = &arch;
      LintOptions lint_options;
      lint_options.mapping_pack = false;
      lint_options.deep_budget = options.slices.limits.budget;
      lint_options.cache = options.cache.get();
      lint_options.cache_stats = &result.diagnostics.cache;
      const LintResult lint = run_lint(input, lint_options);
      if (lint.has_errors()) {
        result.failure_kind = FailureKind::kLintRejected;
        return result;
      }
    }
    {
      const Tracer::Scope span(tracer, "binder", allocate.id(), op);
      result.stage = "binding";
      BindingResult bound =
          bind_actors(app, arch, options.weights, options.binding_backtracking);
      if (!bound.success) {
        result.failure_kind = FailureKind::kBindingFailed;
        return result;
      }
      result.binding = options.rebalance
                           ? rebalance_binding(app, arch, options.weights, bound.binding)
                           : bound.binding;
    }
    {
      const Tracer::Scope span(tracer, "list_scheduler", allocate.id(), op);
      result.stage = "scheduling";
      CacheStats stats;
      ListSchedulingResult scheduled =
          construct_schedules(app, arch, result.binding, options.slices.limits,
                              options.slices.connection_model, options.cache.get(), &stats);
      if (!scheduled.success) {
        result.failure_kind = FailureKind::kSchedulingFailed;
        return result;
      }
      result.schedules = std::move(scheduled.schedules);
    }
    {
      const Tracer::Scope span(tracer, "slice_allocator", allocate.id(), op);
      result.stage = "slices";
      SliceAllocationOptions slice_options = options.slices;
      slice_options.degrade_to_conservative = options.degrade_to_conservative;
      slice_options.cache = options.cache;
      SliceAllocationResult sliced =
          allocate_slices(app, arch, result.binding, result.schedules, slice_options);
      result.throughput_checks = sliced.throughput_checks;
      if (!sliced.success) {
        result.failure_kind = FailureKind::kSliceAllocationFailed;
        return result;
      }
      result.slices = std::move(sliced.slices);
      result.achieved_throughput = sliced.achieved_throughput;
      result.achieved_period = sliced.achieved_period;
    }
  } catch (const AnalysisError& e) {
    result.failure_kind =
        e.kind() == AnalysisErrorKind::kDeadlineExceeded ? FailureKind::kDeadlineExceeded
        : e.kind() == AnalysisErrorKind::kCancelled      ? FailureKind::kCancelled
                                                         : FailureKind::kAnalysisLimit;
    return result;
  } catch (const ThroughputError&) {
    result.failure_kind = FailureKind::kAnalysisLimit;
    return result;
  } catch (const std::exception&) {
    result.failure_kind = FailureKind::kInternalError;
    return result;
  }
  result.usage = compute_usage(app, arch, result.binding);
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    result.usage[t].time_slice = result.slices[t];
  }
  result.success = true;
  return result;
}

void add_strategy_layers(RunResult& result, const Tracer& tracer, long apps, long allocated,
                         long checks, bool equivalent, const std::string& why_not) {
  const std::vector<std::pair<std::string, std::string>> names = {
      {"lint.us_per_app", "us"},
      {"lint.share", "ratio"},
      {"binder.us_per_app", "us"},
      {"list_scheduler.us_per_app", "us"},
      {"slice_allocator.ms_per_app", "ms"},
      {"slice_allocator.share", "ratio"},
      {"slice_allocator.checks_per_app", "count"}};
  if (!equivalent || apps == 0) {
    add_unmeasured(result, names, equivalent ? "no composed strategy run" : why_not);
    return;
  }
  const double n = static_cast<double>(apps);
  const double total = tracer.total_seconds("allocate");
  const double lint = tracer.total_seconds("lint");
  const double slices = tracer.total_seconds("slice_allocator");
  result.metrics.set("lint.us_per_app", 1e6 * lint / n, "us");
  result.metrics.set("lint.share", total > 0 ? lint / total : 0, "ratio");
  result.metrics.set("binder.us_per_app", 1e6 * tracer.total_seconds("binder") / n, "us");
  result.metrics.set("list_scheduler.us_per_app",
                     1e6 * tracer.total_seconds("list_scheduler") / n, "us");
  result.metrics.set("slice_allocator.ms_per_app", 1e3 * slices / n, "ms");
  result.metrics.set("slice_allocator.share", total > 0 ? slices / total : 0, "ratio");
  result.metrics.set("slice_allocator.checks_per_app",
                     allocated > 0 ? static_cast<double>(checks) / static_cast<double>(allocated)
                                   : 0,
                     "count");
}

void add_probe_layers(RunResult& result, const std::vector<KeptAllocation>& kept,
                      const std::string& work_dir, bool parse_is_probe) {
  if (kept.empty()) {
    add_unmeasured(result,
                   {{"constrained.states_per_s", "1/s"},
                    {"constrained.states_per_check", "count"},
                    {"constrained.us_per_check", "us"},
                    {"cache.key_ns", "ns"},
                    {"cache.hit_ns", "ns"},
                    {"cache.insert_ns", "ns"},
                    {"persistent_cache.append_us", "us"}},
                   "no successful allocation to re-run");
    return;
  }
  const std::string store_dir = work_dir + "/probe-store";
  std::filesystem::remove_all(store_dir);
  ThroughputCache memory_cache;
  auto disk_cache = std::make_unique<ThroughputCache>();
  PersistentCacheOptions store;
  store.dir = store_dir;
  disk_cache->attach_persistent(std::make_shared<PersistentCache>(store));

  double engine_s = 0, key_s = 0, insert_s = 0, hit_s = 0, append_s = 0, parse_s = 0;
  std::uint64_t states = 0;
  long mismatches = 0;
  for (const KeptAllocation& k : kept) {
    const ApplicationGraph& app = *k.app;
    const BindingAwareGraph bag =
        build_binding_aware_graph(app, k.arch, k.result.binding, k.result.slices);
    const auto gamma = compute_repetition_vector(bag.graph);
    if (!gamma) {
      ++mismatches;
      continue;
    }
    const ConstrainedSpec spec = make_constrained_spec(k.arch, bag, k.result.schedules);
    const ExecutionLimits limits;

    auto t0 = Clock::now();
    ConstrainedResult run =
        execute_constrained(bag.graph, *gamma, spec, SchedulingMode::kStaticOrder, limits);
    auto t1 = Clock::now();
    engine_s += seconds_between(t0, t1);
    states += run.base.states_stored;
    if (k.result.diagnostics.degraded_checks == 0 &&
        run.base.throughput() != k.result.achieved_throughput) {
      ++mismatches;
      result.fail("recomputed throughput " + run.base.throughput().to_string() + " of " +
                  app.name() + " differs from the achieved " +
                  k.result.achieved_throughput.to_string());
    }

    t0 = Clock::now();
    const StateKey key =
        constrained_cache_key(bag.graph, spec, SchedulingMode::kStaticOrder, limits);
    t1 = Clock::now();
    key_s += seconds_between(t0, t1);

    t0 = Clock::now();
    memory_cache.insert(key, run);
    t1 = Clock::now();
    insert_s += seconds_between(t0, t1);

    t0 = Clock::now();
    const auto hit = memory_cache.lookup(key);
    t1 = Clock::now();
    hit_s += seconds_between(t0, t1);
    if (!hit) ++mismatches;

    t0 = Clock::now();
    disk_cache->insert(key, std::move(run));
    t1 = Clock::now();
    append_s += seconds_between(t0, t1);

    if (parse_is_probe) {
      std::ostringstream app_text, arch_text;
      write_application(app_text, app);
      write_architecture(arch_text, k.arch);
      t0 = Clock::now();
      std::istringstream app_in(app_text.str()), arch_in(arch_text.str());
      const ApplicationGraph parsed_app = read_application(app_in);
      const Architecture parsed_arch = read_architecture(arch_in);
      t1 = Clock::now();
      parse_s += seconds_between(t0, t1);
      if (parsed_app.sdf().num_actors() != app.sdf().num_actors() ||
          parsed_arch.num_tiles() != k.arch.num_tiles()) {
        ++mismatches;
      }
    }
  }
  disk_cache.reset();
  const double n = static_cast<double>(kept.size());
  result.metrics.set("constrained.states_per_s",
                     engine_s > 0 ? static_cast<double>(states) / engine_s : 0, "1/s");
  result.metrics.set("constrained.states_per_check", static_cast<double>(states) / n, "count");
  result.metrics.set("constrained.us_per_check", 1e6 * engine_s / n, "us");
  result.metrics.set("cache.key_ns", 1e9 * key_s / n, "ns");
  result.metrics.set("cache.hit_ns", 1e9 * hit_s / n, "ns");
  result.metrics.set("cache.insert_ns", 1e9 * insert_s / n, "ns");
  result.metrics.set("persistent_cache.append_us", 1e6 * append_s / n, "us");
  if (parse_is_probe) result.metrics.set("io.parse_us", 1e6 * parse_s / n, "us");
  result.report.push_back("probe: re-ran " + std::to_string(kept.size()) +
                          " final allocations uncached, " + std::to_string(mismatches) +
                          " mismatches");
  std::filesystem::remove_all(store_dir);
}

void add_unmeasured(RunResult& result,
                    const std::vector<std::pair<std::string, std::string>>& names,
                    const std::string& reason) {
  for (const auto& [name, unit] : names) result.metrics.unmeasured(name, unit, reason);
}

const std::vector<std::pair<std::string, std::string>>& service_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"persistent_cache.disk_hit_ratio", "ratio"},
      {"persistent_cache.recover_mb_per_s", "MB/s"},
      {"frame.encode_ns_per_kb", "ns/KiB"},
      {"frame.decode_ns_per_kb", "ns/KiB"},
      {"protocol.decode_us", "us"},
      {"admission.wait_ms_p50", "ms"},
      {"admission.wait_ms_p90", "ms"},
      {"server.run_ms_p50", "ms"},
      {"server.run_ms_p90", "ms"},
      {"client.overhead_ms_p50", "ms"},
      {"admission.shed_ratio", "ratio"}};
  return names;
}

void add_trace_overhead(RunResult& result, const OpSample& plain, const OpSample& untraced,
                        const OpSample& traced) {
  result.metrics.set("proc.sys_cpu_share",
                     plain.cpu.total() > 0 ? plain.cpu.sys_s / plain.cpu.total() : 0, "ratio");
  const double without = median(untraced.window_ops_per_s);
  const double with_trace = median(traced.window_ops_per_s);
  result.metrics.set("trace.untraced_ops_per_s", without, "1/s");
  result.metrics.set("trace.traced_ops_per_s", with_trace, "1/s");
  result.metrics.set("trace.overhead_ratio", with_trace > 0 ? without / with_trace : 0,
                     "ratio");
}

}  // namespace perfbench
