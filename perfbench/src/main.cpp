// perfbench: the sdfmap performance benchmark.
//
//   perfbench --workload sweep|multimedia|daemon --seed N --seconds S --trace 0|1
//             [--expected-dir DIR] [--work-dir DIR] [--sha SHA]
//             [--write-expected]
//
// Runs one workload for S seconds on inputs generated from N, checks every
// result, prints a report on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced run with --trace 1. Exit
// code 0 only when every op was correct. Non-Release and sanitizer builds are
// refused (exit 3): their numbers are not comparable.

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "workload.h"

extern char** environ;

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},      {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},      {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MiB"},
    {"ok_ratio", "ratio"}};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"io.parse_us", "us"},
    {"lint.us_per_app", "us"},
    {"lint.share", "ratio"},
    {"binder.us_per_app", "us"},
    {"list_scheduler.us_per_app", "us"},
    {"slice_allocator.ms_per_app", "ms"},
    {"slice_allocator.share", "ratio"},
    {"slice_allocator.checks_per_app", "count"},
    {"constrained.states_per_s", "1/s"},
    {"constrained.states_per_check", "count"},
    {"constrained.us_per_check", "us"},
    {"cache.key_ns", "ns"},
    {"cache.hit_ns", "ns"},
    {"cache.insert_ns", "ns"},
    {"cache.hit_ratio", "ratio"},
    {"persistent_cache.append_us", "us"},
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
    {"admission.shed_ratio", "ratio"},
    {"task_pool.busy_ratio", "ratio"},
    {"task_pool.steal_ratio", "ratio"},
    {"proc.sys_cpu_share", "ratio"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.traced_ops_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"}};

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload sweep|multimedia|daemon --seed N --seconds S "
               "--trace 0|1 [--expected-dir DIR] [--work-dir DIR] [--sha SHA] "
               "[--write-expected]\n";
  return 2;
}

/// The program must only see generated inputs: drop every SDFMAP_* knob
/// (jobs, cache, cache dir, lint budget, ...) before anything reads it.
void clear_sdfmap_environment() {
  std::vector<std::string> names;
  for (char** e = environ; e && *e; ++e) {
    if (std::strncmp(*e, "SDFMAP_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string sanitizers() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "compiler-detected";
#endif
  return s;
}

/// Keeps exactly the metrics of `wanted`, in its order; a metric the
/// workload did not produce is reported unmeasured.
perfbench::MetricSheet select(const perfbench::MetricSheet& all,
                              const std::vector<std::pair<std::string, std::string>>& wanted,
                              std::vector<std::string>& notes) {
  perfbench::MetricSheet out;
  for (const auto& [name, unit] : wanted) {
    const perfbench::Metric* found = nullptr;
    for (const perfbench::Metric& m : all.metrics()) {
      if (m.name == name) found = &m;
    }
    if (!found) {
      out.unmeasured(name, unit, "not produced by this workload");
      notes.push_back("unmeasured " + name + ": not produced by this workload");
    } else if (!found->measured) {
      out.unmeasured(name, unit, found->reason);
      notes.push_back("unmeasured " + name + ": " + found->reason);
    } else {
      out.set(name, found->value, unit);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  clear_sdfmap_environment();

  RunOptions options;
  options.expected_dir = "perfbench/expected";
  options.work_dir = ".bench_work";
  std::string sha = "unknown";
  std::string trace = "0";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = value();
      } else if (arg == "--expected-dir") {
        options.expected_dir = value();
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--sha") {
        sha = value();
      } else if (arg == "--write-expected") {
        options.write_expected = true;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (options.workload != "sweep" && options.workload != "multimedia" &&
      options.workload != "daemon") {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed || !have_seconds || !(options.seconds > 0)) {
    return usage("--seed and a positive --seconds are required");
  }
  if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  if (options.write_expected && options.seed != perfbench::kDefaultSeed) {
    return usage("--write-expected applies to the default seed only");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = sanitizers();
  const bool optimized = build_type == "Release" && sanitize.empty();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::cerr << "[perfbench] workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << trace << " nproc=" << nproc
            << " build=" << build_type << " sanitizers=" << (sanitize.empty() ? "none" : sanitize)
            << " sha=" << sha << "\n";
  if (!optimized) {
    std::cerr << "perfbench: refusing to time a " << build_type
              << (sanitize.empty() ? "" : " + sanitizer") << " build; build Release\n";
    return 3;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  RunResult result;
  try {
    if (options.workload == "sweep") {
      result = perfbench::run_sweep(options);
    } else if (options.workload == "multimedia") {
      result = perfbench::run_multimedia(options);
    } else {
      result = perfbench::run_daemon(options);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  if (options.write_expected) {
    std::cerr << "[perfbench] wrote expected results to " << options.expected_dir << "\n";
    return 0;
  }

  result.failed = std::min(result.failed, result.attempted);
  if (result.failed > 0) result.correct = false;
  std::vector<std::string> notes;
  const perfbench::MetricSheet sheet =
      select(result.metrics, options.trace ? kPerLayer : kEndToEnd, notes);

  for (const std::string& line : result.report) std::cerr << "[perfbench] " << line << "\n";
  for (const std::string& line : notes) std::cerr << "[perfbench] " << line << "\n";
  for (const perfbench::Metric& m : sheet.metrics()) {
    if (m.measured) std::cerr << "[perfbench]   " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cerr << "[perfbench] " << result.attempted << " ops, " << result.failed
            << " failed (fail_ratio "
            << (result.attempted > 0 ? static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted)
                                     : 0.0)
            << ")" << (result.correct ? "" : ", OUTPUT CHECK FAILED") << "\n";

  std::cout << "# perfbench workload=" << options.workload << " seed=" << options.seed
            << " trace=" << trace << " nproc=" << nproc << " build=" << build_type
            << " sanitizers=none sha=" << sha << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": " << sheet.to_json() << "}" << std::endl;
  return result.correct ? 0 : 1;
}
