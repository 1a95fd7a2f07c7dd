// The two in-process allocation workloads:
//
//  * sweep      — the Tab. 5 design-space sweep: 5 cost functions x 3 mixed
//                 (set 4) sequences of 48 applications x 3 benchmark
//                 platforms = 45 allocate_sequence calls per pass, sharing one
//                 in-memory ThroughputCache on a 2-job TaskPool. Op = one
//                 allocate_sequence call.
//  * multimedia — Sec. 10.3: 3x H.263 + MP3 on the 2x2 media platform with
//                 tile-cost weights (2,0,1); every pass starts with a fresh
//                 cache like a one-shot flow_cli run. Op = one application's
//                 allocation onto what the earlier applications of the pass
//                 left free.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>

#include "check.h"
#include "src/analysis/cache.h"
#include "src/appmodel/media.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/multi_app.h"
#include "src/platform/resources.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/repetition_vector.h"
#include "workload.h"

namespace perfbench {

using namespace sdfmap;

namespace {

constexpr int kSetupRepeats = 5;

// ---- sweep -----------------------------------------------------------------

constexpr std::size_t kSequenceLength = 48;
constexpr int kSequences = 3;
constexpr int kArchitectures = 3;
constexpr int kCostFunctions = 5;
constexpr unsigned kSweepJobs = 2;
/// Distinct input sets a sweep run cycles through; pass p uses set
/// p % kSweepInputSets, so one run averages over many generated sequences.
constexpr std::uint64_t kSweepInputSets = 16;
/// Final allocations kept per traced run for the per-layer probes.
constexpr std::size_t kMaxKept = 400;

const TileCostWeights kWeights[kCostFunctions] = {
    {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {0, 1, 2}};

/// Sequence seed of input set `set`, sequence `j`. The default seed's first
/// set is exactly Tab. 5's sequences 1, 2, 3.
std::uint64_t sequence_seed(std::uint64_t seed, std::uint64_t set, int j) {
  return 1 + static_cast<std::uint64_t>(j) + kSequences * set +
         kSequences * kSweepInputSets * (seed - 1);
}

struct SweepRun {
  int fn;
  int seq;
  int arch;
};

struct SweepInputs {
  std::vector<std::vector<std::vector<ApplicationGraph>>> sets;  // [set][seq]
  std::vector<Architecture> archs;
  std::vector<SweepRun> runs;
};

SweepInputs make_sweep_inputs(std::uint64_t seed) {
  SweepInputs in;
  for (std::uint64_t set = 0; set < kSweepInputSets; ++set) {
    std::vector<std::vector<ApplicationGraph>> sequences;
    for (int j = 0; j < kSequences; ++j) {
      sequences.push_back(
          generate_sequence(BenchmarkSet::kMixed, kSequenceLength, sequence_seed(seed, set, j)));
    }
    in.sets.push_back(std::move(sequences));
  }
  for (int a = 0; a < kArchitectures; ++a) in.archs.push_back(make_benchmark_architecture(a));
  for (int fn = 0; fn < kCostFunctions; ++fn) {
    for (int seq = 0; seq < kSequences; ++seq) {
      for (int arch = 0; arch < kArchitectures; ++arch) in.runs.push_back({fn, seq, arch});
    }
  }
  return in;
}

std::string op_key(std::uint64_t set, const SweepRun& run) {
  std::ostringstream os;
  os << "set" << std::setw(2) << std::setfill('0') << set << ".fn" << run.fn << ".seq"
     << run.seq << ".arch" << run.arch;
  return os.str();
}

std::string sequence_digest(const std::vector<ApplicationGraph>& apps,
                            const std::vector<StrategyResult>& results) {
  Digest d;
  d.add(static_cast<std::int64_t>(results.size()));
  for (std::size_t i = 0; i < results.size(); ++i) d.add(allocation_digest(apps[i], results[i]));
  return d.hex();
}

/// Validity of one sequence allocation for any seed: every application but a
/// final failed one is allocated, and each allocation fits what the earlier
/// ones left free. Returns the first problem.
std::optional<std::string> check_sequence(const std::vector<ApplicationGraph>& apps,
                                          const Architecture& arch,
                                          const std::vector<StrategyResult>& results) {
  IndependentPlatform platform(arch);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].success) {
      if (i + 1 != results.size()) return "allocation continued after a failure";
      continue;
    }
    if (auto problem = platform.admit(apps[i], results[i])) {
      return apps[i].name() + ": " + *problem;
    }
  }
  return std::nullopt;
}

/// Expected-result bookkeeping of one run: compares against the committed
/// file (default seed, or every seed for seed-independent inputs) or
/// collects values for --write-expected. When a committed file applies, a
/// missing file or key fails the op like a differing value does.
struct ExpectedCheck {
  bool active = false;  ///< a committed file applies to this run
  bool writing = false;
  std::string file;
  bool found = false;   ///< the committed file could be read
  ExpectedMap expected;
  ExpectedMap observed;

  void load(const RunOptions& options, const std::string& name, bool seed_independent) {
    file = name;
    writing = options.write_expected;
    if (writing) return;
    if (!seed_independent && options.seed != kDefaultSeed) return;
    active = true;
    found = read_expected(options.expected_dir + "/" + name, expected);
  }

  /// Records `value` under `key`; returns why it does not match the
  /// committed value, if it does not.
  std::optional<std::string> check(const std::string& key, const std::string& value) {
    if (writing) {
      observed[key] = value;
      return std::nullopt;
    }
    if (!active) return std::nullopt;
    if (!found) return "the committed " + file + " is missing";
    const auto it = expected.find(key);
    if (it == expected.end()) return "no committed digest in " + file;
    if (it->second != value) return "allocation digest differs from the committed one";
    return std::nullopt;
  }
};

/// Compares a multi-line text block with a committed file (or writes it).
/// A missing file is a mismatch.
bool check_text(const RunOptions& options, const std::string& file, const std::string& text,
                bool seed_independent, RunResult& result) {
  const std::string path = options.expected_dir + "/" + file;
  if (options.write_expected) {
    std::ofstream(path) << text;
    return true;
  }
  if (!seed_independent && options.seed != kDefaultSeed) return true;
  std::ifstream in(path);
  if (!in) {
    result.report.push_back(file + ": the committed rows are MISSING");
    return false;
  }
  std::ostringstream committed;
  committed << in.rdbuf();
  if (committed.str() == text) {
    result.report.push_back(file + ": matches the committed rows");
    return true;
  }
  result.report.push_back(file + ": DIFFERS from the committed rows");
  return false;
}

/// The Tab. 5 rows as bench_table5_efficiency prints them, from one pass.
std::string table5_rows(const std::vector<SweepRun>& runs,
                        const std::vector<MultiAppResult>& outcomes) {
  struct Usage {
    double bound = 0, wheel = 0, memory = 0, conn = 0, bw_in = 0, bw_out = 0;
  };
  Usage usage[kCostFunctions];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    Usage& u = usage[runs[i].fn];
    u.bound += static_cast<double>(outcomes[i].num_allocated);
    u.wheel += outcomes[i].utilization.wheel;
    u.memory += outcomes[i].utilization.memory;
    u.conn += outcomes[i].utilization.connections;
    u.bw_in += outcomes[i].utilization.bandwidth_in;
    u.bw_out += outcomes[i].utilization.bandwidth_out;
  }
  const double num_runs = kSequences * kArchitectures;
  Usage max;
  for (Usage& u : usage) {
    u.bound /= num_runs;
    u.wheel /= num_runs;
    u.memory /= num_runs;
    u.conn /= num_runs;
    u.bw_in /= num_runs;
    u.bw_out /= num_runs;
    max.wheel = std::max(max.wheel, u.wheel);
    max.memory = std::max(max.memory, u.memory);
    max.conn = std::max(max.conn, u.conn);
    max.bw_in = std::max(max.bw_in, u.bw_in);
    max.bw_out = std::max(max.bw_out, u.bw_out);
  }
  const double paper[5][5] = {{0.71, 0.82, 0.88, 0.83, 0.70},
                              {0.85, 0.93, 1.00, 1.00, 1.00},
                              {0.72, 0.82, 0.67, 0.47, 0.67},
                              {0.96, 0.98, 1.00, 0.94, 0.79},
                              {1.00, 1.00, 0.94, 0.72, 0.92}};
  std::ostringstream os;
  os << "  (c1,c2,c3)    timewheel     memory      connections    input bw     "
        "output bw    apps\n";
  const auto norm = [](double v, double m) { return m > 0 ? v / m : 0.0; };
  for (int fn = 0; fn < kCostFunctions; ++fn) {
    os << "  " << std::left << std::setw(11) << kWeights[fn].to_string() << std::right
       << std::fixed << std::setprecision(2);
    const double cells[5] = {norm(usage[fn].wheel, max.wheel), norm(usage[fn].memory, max.memory),
                             norm(usage[fn].conn, max.conn), norm(usage[fn].bw_in, max.bw_in),
                             norm(usage[fn].bw_out, max.bw_out)};
    for (int c = 0; c < 5; ++c) os << std::setw(6) << cells[c] << " (" << paper[fn][c] << ")";
    os << std::setw(7) << std::setprecision(1) << usage[fn].bound << "\n";
  }
  const Usage& fn5 = usage[4];
  const double avg_used = (fn5.wheel + fn5.memory + fn5.conn + (fn5.bw_in + fn5.bw_out) / 2) / 4;
  os << "\n  average absolute resource usage with cost fn (0,1,2): " << std::fixed
     << std::setprecision(2) << avg_used << " (paper reports 0.73)\n";
  return os.str();
}

/// One sweep op composed from the strategy's layers: the allocate_sequence
/// loop (stop at the first failure) over composed_allocate.
struct ComposedSequence {
  std::vector<StrategyResult> results;
  std::vector<Architecture> platforms;  ///< free resources each app saw
};

ComposedSequence composed_sequence(const std::vector<ApplicationGraph>& apps,
                                   const Architecture& arch, const StrategyOptions& options,
                                   Tracer* tracer, std::uint64_t op) {
  ComposedSequence out;
  ResourcePool pool(arch);
  for (const ApplicationGraph& app : apps) {
    StrategyResult r = composed_allocate(app, pool.available(), options, tracer, op);
    out.platforms.push_back(pool.available());
    const bool ok = r.success;
    if (ok) pool.commit(r.usage);
    out.results.push_back(std::move(r));
    if (!ok) break;
  }
  return out;
}

void add_strategy_counts(const std::vector<StrategyResult>& results, long& apps, long& allocated,
                         long& checks) {
  for (const StrategyResult& r : results) {
    ++apps;
    if (!r.success) continue;
    ++allocated;
    checks += r.throughput_checks;
  }
}

}  // namespace

RunResult run_sweep(const RunOptions& options) {
  RunResult result;
  TaskPool::set_global_jobs(kSweepJobs);

  std::vector<double> setup_seconds;
  SweepInputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    in = make_sweep_inputs(options.seed);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  ExpectedCheck expected;
  expected.load(options, "sweep.digests", false);
  std::map<std::string, std::string> digests;  // op key -> digest (this run)
  CacheStats cache_totals;
  ParallelStats parallel;

  // One pass of the 45 allocate_sequence calls, checked after its window.
  const auto run_pass = [&](std::uint64_t pass, OpSample& sample) {
    const std::uint64_t set = pass % kSweepInputSets;
    const auto& sequences = in.sets[set];
    auto cache = std::make_shared<ThroughputCache>();
    struct Out {
      double seconds;
      MultiAppResult r;
    };
    const CpuTimes cpu0 = cpu_times();
    const auto t0 = Clock::now();
    std::vector<Out> outs = parallel_transform(
        in.runs,
        [&](const SweepRun& run, std::size_t) {
          StrategyOptions strategy;
          strategy.weights = kWeights[run.fn];
          strategy.cache = cache;
          const auto start = Clock::now();
          MultiAppResult r = allocate_sequence(sequences[static_cast<std::size_t>(run.seq)],
                                               in.archs[static_cast<std::size_t>(run.arch)],
                                               strategy);
          return Out{seconds_between(start, Clock::now()), std::move(r)};
        },
        ParallelOptions{}, &parallel);
    const double wall = seconds_between(t0, Clock::now());
    const CpuTimes cpu1 = cpu_times();
    sample.add_window(outs.size(), wall, {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s});
    cache_totals.merge(cache->stats());

    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      const SweepRun& run = in.runs[i];
      const auto& apps = sequences[static_cast<std::size_t>(run.seq)];
      const MultiAppResult& r = outs[i].r;
      sample.op_seconds.push_back(outs[i].seconds);
      ++result.attempted;
      const std::string key = op_key(set, run);
      const std::string digest = sequence_digest(apps, r.results);
      digests[key] = digest;
      if (auto mismatch = expected.check(key, digest)) {
        result.fail(key + ": " + *mismatch);
      } else if (auto problem =
                     check_sequence(apps, in.archs[static_cast<std::size_t>(run.arch)], r.results)) {
        result.fail(key + ": " + *problem);
      }
    }
    if (pass == 0) {
      std::vector<MultiAppResult> outcomes;
      for (Out& out : outs) outcomes.push_back(std::move(out.r));
      const std::string rows = table5_rows(in.runs, outcomes);
      result.report.push_back("Tab. 5 rows of the first input set:\n" + rows);
      if (!check_text(options, "table5.txt", rows, false, result)) result.correct = false;
    }
  };

  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  OpSample untraced;
  std::uint64_t pass = 0;
  const auto start = Clock::now();
  do {
    run_pass(pass++, untraced);
  } while (seconds_between(start, Clock::now()) < untraced_seconds ||
           (options.write_expected && pass < kSweepInputSets));
  result.report.push_back("sweep: " + std::to_string(pass) + " passes, " +
                          std::to_string(untraced.op_seconds.size()) + " ops, cache " +
                          cache_totals.summary());

  if (options.write_expected) {
    write_expected(options.expected_dir + "/sweep.digests", expected.observed,
                   "# sweep op digests, seed 1: input set, cost function, sequence, platform\n");
  }
  if (!options.trace) {
    add_end_to_end(result, setup_seconds, untraced);
    return result;
  }

  // ---- traced run: the same passes through the composed strategy, traced
  // and untraced in turn, so the two halves of the overhead ratio run the
  // same code at interleaved times.
  Tracer tracer;
  OpSample traced, composed_untraced;
  std::vector<KeptAllocation> kept;
  long apps = 0, allocated = 0, checks = 0;
  bool equivalent = true;
  std::string why_not;
  std::uint64_t traced_pass = 0;
  const auto traced_start = Clock::now();
  do {
    const bool tracing = traced_pass % 2 == 0;
    OpSample& sample = tracing ? traced : composed_untraced;
    const std::uint64_t set = (traced_pass / 2) % kSweepInputSets;
    const auto& sequences = in.sets[set];
    auto cache = std::make_shared<ThroughputCache>();
    struct Out {
      double seconds;
      ComposedSequence c;
    };
    const CpuTimes cpu0 = cpu_times();
    const auto t0 = Clock::now();
    std::vector<Out> outs = parallel_transform(in.runs, [&](const SweepRun& run, std::size_t) {
      StrategyOptions strategy;
      strategy.weights = kWeights[run.fn];
      strategy.cache = cache;
      const std::uint64_t op = tracing ? tracer.next_op() : 0;
      const auto op_start = Clock::now();
      ComposedSequence c = composed_sequence(sequences[static_cast<std::size_t>(run.seq)],
                                             in.archs[static_cast<std::size_t>(run.arch)],
                                             strategy, tracing ? &tracer : nullptr, op);
      return Out{seconds_between(op_start, Clock::now()), std::move(c)};
    });
    const double wall = seconds_between(t0, Clock::now());
    const CpuTimes cpu1 = cpu_times();
    sample.add_window(outs.size(), wall, {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s});

    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      const SweepRun& run = in.runs[i];
      const auto& seq = sequences[static_cast<std::size_t>(run.seq)];
      const ComposedSequence& c = outs[i].c;
      sample.op_seconds.push_back(outs[i].seconds);
      const std::string key = op_key(set, run);
      auto it = digests.find(key);
      if (it == digests.end()) {
        StrategyOptions strategy;
        strategy.weights = kWeights[run.fn];
        const MultiAppResult r =
            allocate_sequence(seq, in.archs[static_cast<std::size_t>(run.arch)], strategy);
        it = digests.emplace(key, sequence_digest(seq, r.results)).first;
      }
      if (sequence_digest(seq, c.results) != it->second) {
        equivalent = false;
        why_not = key + ": composed layer calls differ from allocate_sequence";
      }
      if (!tracing) continue;
      add_strategy_counts(c.results, apps, allocated, checks);
      for (std::size_t a = 0; a < c.results.size() && kept.size() < kMaxKept; ++a) {
        if (c.results[a].success) kept.push_back({&seq[a], c.platforms[a], c.results[a]});
      }
    }
    ++traced_pass;
  } while (seconds_between(traced_start, Clock::now()) < options.seconds / 2 ||
           traced_pass < 2);

  result.attempted +=
      static_cast<long>(traced.op_seconds.size() + composed_untraced.op_seconds.size());
  add_strategy_layers(result, tracer, apps, allocated, checks, equivalent, why_not);
  add_probe_layers(result, kept, options.work_dir, true);
  result.metrics.set("cache.hit_ratio", cache_totals.hit_rate(), "ratio");
  result.metrics.set("task_pool.busy_ratio",
                     parallel.wall_seconds > 0
                         ? parallel.task_seconds / (parallel.wall_seconds * kSweepJobs)
                         : 0,
                     "ratio");
  result.metrics.set("task_pool.steal_ratio",
                     parallel.tasks > 0 ? static_cast<double>(parallel.stolen_tasks) /
                                              static_cast<double>(parallel.tasks)
                                        : 0,
                     "ratio");
  add_trace_overhead(result, untraced, composed_untraced, traced);
  add_unmeasured(result, service_metric_names(), "the sweep runs no daemon");
  if (!tracer.write(options.work_dir + "/spans-sweep.jsonl")) {
    result.report.push_back("could not write the span file");
  }
  return result;
}

// ---- multimedia ------------------------------------------------------------

namespace {

const TileCostWeights kMediaWeights{2, 0, 1};

struct MediaInputs {
  Architecture platform;
  std::vector<ApplicationGraph> apps;
};

MediaInputs make_media_inputs() {
  MediaInputs in{make_media_platform(), {}};
  for (int i = 0; i < 3; ++i) {
    in.apps.push_back(
        make_h263_decoder(in.platform.num_proc_types(), 2376, "h263_" + std::to_string(i)));
  }
  in.apps.push_back(make_mp3_decoder(in.platform.num_proc_types()));
  for (const ApplicationGraph& app : in.apps) (void)app.repetition_vector();
  return in;
}

/// The Sec. 10.3 rows bench_multimedia prints, minus its two wall-clock lines.
std::string sec10_3_rows(const MediaInputs& in, const std::vector<StrategyResult>& results,
                         const ResourcePool::UtilizationReport& u) {
  const auto compare = [](std::ostream& os, const std::string& label, const std::string& measured,
                          const std::string& paper) {
    os << "  " << std::left << std::setw(44) << label << " measured " << std::setw(12)
       << measured << " paper " << std::setw(12) << paper
       << (measured == paper ? " [match]" : "") << "\n";
  };
  std::ostringstream os;
  std::int64_t hsdf_actors = 0;
  for (const auto& app : in.apps) hsdf_actors += iteration_firings(app.repetition_vector());
  compare(os, "combined HSDFG actor count", std::to_string(hsdf_actors), "14275");
  std::size_t allocated = 0;
  for (const StrategyResult& r : results) allocated += r.success ? 1 : 0;
  compare(os, "applications allocated", std::to_string(allocated), "4");
  int slice_checks = 0;
  for (std::size_t i = 0; i < results.size() && results[i].success; ++i) {
    const StrategyResult& s = results[i];
    slice_checks += s.throughput_checks;
    os << "  " << in.apps[i].name() << ": throughput " << s.achieved_throughput.to_string()
       << " (constraint " << in.apps[i].throughput_constraint().to_string() << "), checks "
       << s.throughput_checks << ", slices";
    for (const auto slice : s.slices) os << " " << slice;
    os << "\n";
  }
  os << "  throughput checks during slice allocation: " << slice_checks
     << " total (paper: 34)\n";
  os << std::fixed << std::setprecision(2) << "  utilization: wheel " << u.wheel << ", memory "
     << u.memory << ", connections " << u.connections << ", bw "
     << (u.bandwidth_in + u.bandwidth_out) / 2 << "\n";
  return os.str();
}

}  // namespace

RunResult run_multimedia(const RunOptions& options) {
  RunResult result;
  TaskPool::set_global_jobs(1);  // a one-shot flow_cli run is serial

  // Set-up: build the models and warm the process up with one cold-cache
  // allocation of the MP3 decoder (first-touch allocations, lazy tables).
  std::vector<double> setup_seconds;
  MediaInputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    in = make_media_inputs();
    StrategyOptions warm_up;
    warm_up.weights = kMediaWeights;
    warm_up.cache = std::make_shared<ThroughputCache>();
    if (!allocate_resources(in.apps.back(), in.platform, warm_up).success) {
      throw std::runtime_error("multimedia warm-up allocation failed");
    }
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  ExpectedCheck expected;
  expected.load(options, "multimedia.digests", true);
  std::vector<std::string> digests(in.apps.size());
  StrategyOptions strategy;
  strategy.weights = kMediaWeights;

  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  OpSample untraced;
  CacheStats cache_totals;
  long passes = 0;
  const auto start = Clock::now();
  do {
    strategy.cache = std::make_shared<ThroughputCache>();
    ResourcePool pool(in.platform);
    IndependentPlatform platform(in.platform);
    std::vector<StrategyResult> results;
    double pass_seconds = 0;
    CpuTimes pass_cpu;
    for (std::size_t i = 0; i < in.apps.size(); ++i) {
      const CpuTimes cpu0 = cpu_times();
      const auto t0 = Clock::now();
      StrategyResult r = allocate_resources(in.apps[i], pool.available(), strategy);
      const double seconds = seconds_between(t0, Clock::now());
      const CpuTimes cpu1 = cpu_times();
      untraced.op_seconds.push_back(seconds);
      pass_seconds += seconds;
      pass_cpu.user_s += cpu1.user_s - cpu0.user_s;
      pass_cpu.sys_s += cpu1.sys_s - cpu0.sys_s;
      ++result.attempted;

      const std::string key = "app" + std::to_string(i) + "." + in.apps[i].name();
      digests[i] = allocation_digest(in.apps[i], r);
      if (auto mismatch = expected.check(key, digests[i])) {
        result.fail(key + ": " + *mismatch);
      } else if (auto problem = platform.admit(in.apps[i], r)) {
        result.fail(key + ": " + *problem);
      }
      if (r.success) pool.commit(r.usage);
      results.push_back(std::move(r));
    }
    untraced.add_window(in.apps.size(), pass_seconds, pass_cpu);
    cache_totals.merge(strategy.cache->stats());
    if (passes == 0) {
      const std::string rows = sec10_3_rows(in, results, pool.utilization());
      result.report.push_back("Sec. 10.3 rows:\n" + rows);
      if (!check_text(options, "sec10_3.txt", rows, true, result)) result.correct = false;
    }
    ++passes;
  } while (seconds_between(start, Clock::now()) < untraced_seconds);
  result.report.push_back("multimedia: " + std::to_string(passes) + " passes, cache " +
                          cache_totals.summary());

  if (options.write_expected) {
    write_expected(options.expected_dir + "/multimedia.digests", expected.observed,
                   "# Sec. 10.3 allocation digests (every seed)\n");
  }
  if (!options.trace) {
    add_end_to_end(result, setup_seconds, untraced);
    return result;
  }

  // Traced run: composed passes, traced and untraced in turn (see the sweep).
  Tracer tracer;
  OpSample traced, composed_untraced;
  std::vector<KeptAllocation> kept;
  long apps = 0, allocated = 0, checks = 0;
  bool equivalent = true;
  std::string why_not;
  long traced_passes = 0;
  const auto traced_start = Clock::now();
  do {
    const bool tracing = traced_passes++ % 2 == 0;
    OpSample& sample = tracing ? traced : composed_untraced;
    strategy.cache = std::make_shared<ThroughputCache>();
    ResourcePool pool(in.platform);
    double pass_seconds = 0;
    CpuTimes pass_cpu;
    for (std::size_t i = 0; i < in.apps.size(); ++i) {
      const std::uint64_t op = tracing ? tracer.next_op() : 0;
      const CpuTimes cpu0 = cpu_times();
      const auto t0 = Clock::now();
      StrategyResult r = composed_allocate(in.apps[i], pool.available(), strategy,
                                           tracing ? &tracer : nullptr, op);
      const double seconds = seconds_between(t0, Clock::now());
      const CpuTimes cpu1 = cpu_times();
      sample.op_seconds.push_back(seconds);
      pass_seconds += seconds;
      pass_cpu.user_s += cpu1.user_s - cpu0.user_s;
      pass_cpu.sys_s += cpu1.sys_s - cpu0.sys_s;
      if (allocation_digest(in.apps[i], r) != digests[i]) {
        equivalent = false;
        why_not = in.apps[i].name() + ": composed layer calls differ from allocate_resources";
      }
      if (tracing) add_strategy_counts({r}, apps, allocated, checks);
      if (r.success) {
        if (tracing && kept.size() < kMaxKept) {
          kept.push_back({&in.apps[i], pool.available(), r});
        }
        pool.commit(r.usage);
      }
    }
    sample.add_window(in.apps.size(), pass_seconds, pass_cpu);
  } while (seconds_between(traced_start, Clock::now()) < options.seconds / 2 ||
           traced_passes < 2);

  result.attempted +=
      static_cast<long>(traced.op_seconds.size() + composed_untraced.op_seconds.size());
  add_strategy_layers(result, tracer, apps, allocated, checks, equivalent, why_not);
  add_probe_layers(result, kept, options.work_dir, true);
  result.metrics.set("cache.hit_ratio", cache_totals.hit_rate(), "ratio");
  add_unmeasured(result, {{"task_pool.busy_ratio", "ratio"}, {"task_pool.steal_ratio", "ratio"}},
                 "the multimedia run is serial (one job), no parallel region");
  add_trace_overhead(result, untraced, composed_untraced, traced);
  add_unmeasured(result, service_metric_names(), "the multimedia run uses no daemon");
  if (!tracer.write(options.work_dir + "/spans-multimedia.jsonl")) {
    result.report.push_back("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
