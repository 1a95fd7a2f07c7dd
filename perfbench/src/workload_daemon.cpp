// The daemon workload: a closed loop of 4 client connections, one thread
// each, against an in-process sdfmapd Server with 2 workers, serving as a
// read-only replica of a persistent store pre-populated with the checks of a
// fixed hot set of 16 mixed applications.
// Mix: ~3/4 allocate requests for hot applications, ~1/5 allocate requests
// for never-seen applications, the rest lint requests. Op = one request round
// trip; the client makes a single attempt, so sheds and timeouts surface as
// failures instead of hidden retries. Every request text is built before the
// measured windows, so the clients only send and receive.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "check.h"
#include "src/analysis/cache.h"
#include "src/analysis/persistent_cache.h"
#include "src/gen/benchmark_sets.h"
#include "src/io/app_format.h"
#include "src/io/report.h"
#include "src/lint/driver.h"
#include "src/runtime/task_pool.h"
#include "src/service/client.h"
#include "src/service/frame.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "workload.h"

namespace perfbench {

using namespace sdfmap;

namespace {

constexpr int kSetupRepeats = 3;
/// Requests one server serves (~2.3 s on the 4-vCPU tuning host). Its memory
/// tier absorbs ~110 KiB of checks per novel application; a fixed count of
/// requests keeps it far from the tier's entry bound, so no eviction lands
/// inside a run, and keeps peak RSS independent of the run length and of
/// the server's speed.
constexpr std::size_t kEpochRequests = 2000;
constexpr std::size_t kWindowsPerEpoch = 4;
constexpr std::size_t kWindowRequests = kEpochRequests / kWindowsPerEpoch;
constexpr std::size_t kHotApps = 16;
constexpr std::size_t kHotStrata = 16;
constexpr int kClients = 4;
constexpr unsigned kServerWorkers = 2;
constexpr double kHotShare = 0.75;
constexpr double kNovelShare = 0.20;
/// Never-seen applications built at set-up, one per request of an epoch, so
/// the pool cannot run out. Each epoch's fresh server takes them in order
/// from the start of the pool (~400 per epoch). Their response digests are
/// committed for the default seed.
constexpr std::uint64_t kNovelPool = kEpochRequests;
/// Requests of each kind the traced run feeds through the layer probes.
constexpr std::size_t kProbeRequests = 16;

const TileCostWeights kWeights[5] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {0, 1, 2}};

struct Request {
  AllocateRequest allocate;  ///< app / platform texts and weights
  std::string name;          ///< lint path hint stem
};

/// The text of benchmark platform `variant`, built once.
const std::string& platform_text(std::size_t variant) {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (int v = 0; v < 3; ++v) {
      std::ostringstream os;
      write_architecture(os, make_benchmark_architecture(v), "platform");
      out.push_back(os.str());
    }
    return out;
  }();
  return texts.at(variant);
}

/// An allocate request for `app` on benchmark platform `variant` with cost
/// function `fn`.
Request make_request(const ApplicationGraph& app, std::size_t variant, std::size_t fn,
                     const std::string& name) {
  Request r;
  r.name = name;
  std::ostringstream app_text;
  write_application(app_text, app);
  r.allocate.app_text = app_text.str();
  r.allocate.platform_text = platform_text(variant);
  const TileCostWeights& w = kWeights[fn];
  r.allocate.c1 = w.processing;
  r.allocate.c2 = w.memory;
  r.allocate.c3 = w.communication;
  return r;
}

std::uint64_t novel_seed(std::uint64_t seed, std::uint64_t k) {
  return 0x6e6f76656c000000ull + seed * 1000003ull + k;
}

Request make_novel(std::uint64_t seed, std::uint64_t k) {
  const std::uint64_t s = novel_seed(seed, k);
  std::vector<ApplicationGraph> apps = generate_sequence(BenchmarkSet::kMixed, 1, s);
  Rng rng(s);
  const std::size_t variant = rng.index(3);
  return make_request(apps.front(), variant, rng.index(5), "novel_" + std::to_string(k));
}

/// The first kNovelPool novel requests, built on kClients threads.
std::vector<Request> make_novel_pool(std::uint64_t seed) {
  std::vector<Request> pool(kNovelPool);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t k = next.fetch_add(1); k < pool.size(); k = next.fetch_add(1)) {
        pool[k] = make_novel(seed, k);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return pool;
}

/// The hot set. It is the same for every seed, like the multimedia models:
/// with a hot set drawn per seed, requests/s and set-up time differed by up
/// to ~25% between seeds, so the seed drives only the novel applications and
/// the request stream. It is a stratified sample, so it spans the mixed
/// set's model sizes: a pool of kHotApps x kHotStrata mixed apps is ordered
/// by model text size, and one app is drawn from each run of kHotStrata
/// neighbours. Stratum j runs on platform variant j mod 3 with cost function
/// j mod 5.
std::vector<Request> make_hot() {
  const std::uint64_t s = 0x686f740000000000ull + kDefaultSeed;
  const std::vector<ApplicationGraph> pool =
      generate_sequence(BenchmarkSet::kMixed, kHotApps * kHotStrata, s);
  std::vector<std::pair<std::size_t, std::size_t>> by_size;  // (text bytes, pool index)
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::ostringstream text;
    write_application(text, pool[i]);
    by_size.emplace_back(text.str().size(), i);
  }
  std::sort(by_size.begin(), by_size.end());
  Rng rng(s);
  std::vector<Request> out;
  for (std::size_t j = 0; j < kHotApps; ++j) {
    const std::size_t pick = by_size[j * kHotStrata + rng.index(kHotStrata)].second;
    out.push_back(make_request(pool[pick], j % 3, j % 5, "hot_" + std::to_string(j)));
  }
  return out;
}

/// What the server must answer for an allocate request, computed locally
/// from the same texts: the strategy result (for the validity check and the
/// trace equivalence) and its timing-scrubbed report.
struct Local {
  ApplicationGraph app;
  Architecture arch;
  StrategyResult result;
  std::string text;
};

StrategyOptions strategy_for(const AllocateRequest& request,
                             std::shared_ptr<ThroughputCache> cache) {
  StrategyOptions options;
  options.weights = {request.c1, request.c2, request.c3};
  options.cache = std::move(cache);
  return options;
}

Local allocate_locally(const AllocateRequest& request, std::shared_ptr<ThroughputCache> cache) {
  std::istringstream app_in(request.app_text), arch_in(request.platform_text);
  Local local{read_application(app_in), read_architecture(arch_in), {}, {}};
  local.result = allocate_resources(local.app, local.arch, strategy_for(request, cache));
  local.text = scrub_timings(format_strategy_result(local.app, local.arch, local.result));
  return local;
}

LintOptions lint_options(ThroughputCache* cache) {
  LintOptions options;
  options.deep_budget = lint_budget_from_ms(-1);
  options.cache = cache;
  return options;
}

/// The lint report text exactly as the server renders it.
std::string lint_locally(const Request& request, ThroughputCache* cache) {
  const LintResult result =
      lint_text(request.name + ".sdfapp", request.allocate.app_text, lint_options(cache));
  std::ostringstream os;
  os << render_diagnostics_text(result.diagnostics);
  os << count_severity(result.diagnostics, Severity::kError) << " error(s), "
     << count_severity(result.diagnostics, Severity::kWarning) << " warning(s), "
     << count_severity(result.diagnostics, Severity::kInfo) << " info(s)\n";
  return scrub_timings(os.str());
}

/// A local answer reduced to what the check compares: the digest of the
/// timing-scrubbed text and the validity check's verdict on the allocation.
struct Answer {
  std::string digest;
  std::optional<std::string> problem;
};

Answer answer_of(const Local& local) {
  Answer answer{Digest().add(local.text).hex(), std::nullopt};
  if (local.result.success) {
    answer.problem = IndependentPlatform(local.arch).admit(local.app, local.result);
  }
  return answer;
}

enum class Kind { kHot, kNovel, kLint };

/// One request round trip as the client saw it.
struct Exchange {
  Kind kind = Kind::kHot;
  std::uint64_t index = 0;  ///< hot/lint: hot-set index; novel: k
  Clock::time_point sent, queued, running, done;
  bool saw_queued = false, saw_running = false;
  bool ok = false;
  std::string error;
  std::string text;  ///< response text as received
};

struct Setup {
  std::vector<Request> hot;
  std::vector<Request> novel;  ///< the novel pool
  std::vector<Local> hot_local;
  std::vector<Answer> hot_answer;
  std::vector<Answer> lint_answer;
  std::string store_dir;
  /// The store's writer, standing in for a primary daemon: it holds the
  /// store's lock, so the measured server opens the store read-only.
  std::shared_ptr<ThroughputCache> primary;
  std::unique_ptr<Server> server;
};

/// Builds the inputs (hot set and novel pool), computes the expected answers
/// for the hot set,
/// pre-populates a fresh store with the hot set's checks, and starts the
/// server on it as a read-only replica.
///
/// Why read-only: with a writable store every allocate request fsyncs the
/// store's shards under the store mutex (allocate_resources flushes the
/// persistent tier after each run). That bounded this host's daemon at
/// 220-600 req/s from one run to the next, following the disk's momentary
/// latency, against 580-810 req/s with fsync stubbed out. No bound of at
/// most 25% can hold for it. The append path is measured by the
/// persistent_cache.append_us probe instead.
Setup set_up(const RunOptions& options, int rep) {
  Setup s;
  s.hot = make_hot();
  s.novel = make_novel_pool(options.seed);
  s.store_dir = options.work_dir + "/daemon-store-" + std::to_string(rep);
  std::filesystem::remove_all(s.store_dir);
  auto expected_cache = std::make_shared<ThroughputCache>();
  s.primary = make_persistent_throughput_cache(s.store_dir);
  for (const Request& r : s.hot) {
    s.hot_local.push_back(allocate_locally(r.allocate, expected_cache));
    s.hot_answer.push_back(answer_of(s.hot_local.back()));
    s.lint_answer.push_back({Digest().add(lint_locally(r, expected_cache.get())).hex(), {}});
    // The same checks once more into the store; the composed strategy does
    // not flush after every run, so the store is synced once below.
    const Local& local = s.hot_local.back();
    (void)composed_allocate(local.app, local.arch, strategy_for(r.allocate, s.primary), nullptr,
                            0);
    (void)lint_locally(r, s.primary.get());
  }
  s.primary->flush_persistent();

  ServerOptions server;
  server.socket_path = options.work_dir + "/sdfmapd-" + std::to_string(rep) + ".sock";
  server.workers = kServerWorkers;
  server.cache_dir = s.store_dir;
  server.log = [](const std::string&) {};
  std::filesystem::remove(server.socket_path);
  s.server = std::make_unique<Server>(server);
  std::string error;
  if (!s.server->start(&error)) throw std::runtime_error("sdfmapd did not start: " + error);
  return s;
}

void tear_down(Setup& s) {
  if (s.server) {
    const std::string socket = s.server->socket_path();
    s.server->stop();
    s.server.reset();
    std::filesystem::remove(socket);
  }
  s.primary.reset();
  std::filesystem::remove_all(s.store_dir);
  // Hand the torn-down server's memory back, so the next epoch's peak RSS
  // is its own and not the fragmentation left by the earlier ones.
  malloc_trim(0);
}

/// Runs one epoch of the closed loop, kEpochRequests requests against a
/// fresh server; returns every exchange. Novel requests take the pool's
/// entries in order. The epoch is cut into kWindowsPerEpoch windows of
/// kWindowRequests completed requests; each window's wall time and process
/// CPU go into `sample`. With `untraced` set, every second window runs
/// without the tracer and is recorded there instead; `odd_traced` picks
/// which windows are traced.
std::vector<Exchange> closed_loop(const Setup& s, std::uint64_t seed, std::uint64_t stream,
                                  Tracer* tracer, OpSample& sample, OpSample* untraced,
                                  bool odd_traced) {
  std::vector<std::vector<Exchange>> per_client(kClients);
  std::atomic<std::size_t> issued{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> next_novel{0};
  const auto traced_window = [&](std::size_t w) {
    return !untraced || (w % 2 == 1) == odd_traced;
  };
  std::atomic<bool> tracing{tracer != nullptr && traced_window(0)};
  std::mutex window_mutex;
  std::size_t windows_closed = 0;
  auto window_start = Clock::now();
  CpuTimes cpu_start = cpu_times();
  // Closes every window the `done` completed requests have filled.
  const auto close_windows = [&](std::size_t done) {
    const std::lock_guard<std::mutex> lock(window_mutex);
    while ((windows_closed + 1) * kWindowRequests <= done) {
      const auto now = Clock::now();
      const CpuTimes cpu = cpu_times();
      OpSample& target = traced_window(windows_closed) ? sample : *untraced;
      target.add_window(kWindowRequests, seconds_between(window_start, now),
                        {cpu.user_s - cpu_start.user_s, cpu.sys_s - cpu_start.sys_s});
      ++windows_closed;
      tracing.store(tracer != nullptr && traced_window(windows_closed));
      window_start = now;
      cpu_start = cpu;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(Rng(seed).split(stream * kClients + static_cast<std::uint64_t>(c)).next());
      Exchange current;
      ClientOptions options;
      options.socket_path = s.server->socket_path();
      options.attempts = 1;
      options.response_timeout_ms = 60000;
      options.on_progress = [&current](const std::string& stage) {
        if (stage == "queued") {
          current.queued = Clock::now();
          current.saw_queued = true;
        } else if (stage == "running") {
          current.running = Clock::now();
          current.saw_running = true;
        }
      };
      ServiceClient client(options);
      while (issued.fetch_add(1) < kEpochRequests) {
        current = Exchange{};
        const double u = rng.uniform01();
        const Request* request = nullptr;
        if (u < kHotShare) {
          current.kind = Kind::kHot;
          current.index = rng.index(kHotApps);
          request = &s.hot[current.index];
        } else if (u < kHotShare + kNovelShare) {
          current.kind = Kind::kNovel;
          current.index = next_novel.fetch_add(1);
          request = &s.novel.at(current.index);
        } else {
          current.kind = Kind::kLint;
          current.index = rng.index(kHotApps);
          request = &s.hot[current.index];
        }
        Tracer* const t = tracing.load() ? tracer : nullptr;
        const std::uint64_t op = t ? t->next_op() : 0;
        current.sent = Clock::now();
        ServiceOutcome outcome;
        if (current.kind == Kind::kLint) {
          LintRequest lint;
          lint.path_hint = request->name + ".sdfapp";
          lint.text = request->allocate.app_text;
          outcome = client.lint(lint);
        } else {
          outcome = client.allocate(request->allocate);
        }
        current.done = Clock::now();
        if (t) {
          const std::uint64_t id = t->add("request", 0, op, current.sent, current.done);
          if (current.saw_queued && current.saw_running) {
            t->add("admission_wait", id, op, current.queued, current.running);
            t->add("server_run", id, op, current.running, current.done);
          }
        }
        current.ok = outcome.ok;
        if (outcome.ok) {
          current.text = std::move(outcome.result.text);
        } else {
          current.error = service_error_code_name(outcome.error.code);
        }
        per_client[static_cast<std::size_t>(c)].push_back(std::move(current));
        close_windows(completed.fetch_add(1) + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Exchange> all;
  for (auto& v : per_client) {
    for (Exchange& e : v) all.push_back(std::move(e));
  }
  return all;
}

std::string kind_key(Kind kind, std::uint64_t index) {
  switch (kind) {
    case Kind::kHot: return "hot." + std::to_string(index);
    case Kind::kNovel: return "novel." + std::to_string(index);
    case Kind::kLint: return "lint." + std::to_string(index);
  }
  return "?";
}

/// Local answers to the novel requests, by index. A novel request is the
/// same in every epoch, so each is answered once per run.
using NovelAnswers = std::map<std::uint64_t, Answer>;

/// Adds the local answers, uncached, for the novel indices of `exchanges`
/// that `answers` lacks, on kClients threads (between epochs, so it times
/// nothing).
void answer_novel_locally(const std::vector<Exchange>& exchanges, const Setup& s,
                          NovelAnswers& answers) {
  std::vector<std::uint64_t> missing;
  for (const Exchange& e : exchanges) {
    if (e.kind == Kind::kNovel && e.ok && !answers.count(e.index)) missing.push_back(e.index);
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  std::vector<Answer> slots(missing.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < missing.size(); i = next.fetch_add(1)) {
        slots[i] = answer_of(allocate_locally(s.novel.at(missing[i]).allocate, nullptr));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < missing.size(); ++i) answers.emplace(missing[i], slots[i]);
}

/// Checks every exchange of one epoch: the response arrived, equals what the
/// library answers locally for the same texts, passes the validity check,
/// and matches the committed digest: for the hot set's allocate and lint
/// requests on every seed, for novel requests on the default seed. Every one
/// of those has a committed digest, so a missing one fails the op.
/// Drops each response text once checked, so the memory held does not grow
/// with the number of requests a run serves.
void check_exchanges(std::vector<Exchange>& exchanges, const Setup& s,
                     const RunOptions& options, const ExpectedMap& expected,
                     NovelAnswers& answers, RunResult& result) {
  answer_novel_locally(exchanges, s, answers);
  for (Exchange& e : exchanges) {
    ++result.attempted;
    const std::string key = kind_key(e.kind, e.index);
    if (!e.ok) {
      result.fail(key + ": " + e.error);
      continue;
    }
    const std::string digest = Digest().add(scrub_timings(e.text)).hex();
    std::string().swap(e.text);
    const Answer& want = e.kind == Kind::kHot    ? s.hot_answer[e.index]
                         : e.kind == Kind::kLint ? s.lint_answer[e.index]
                                                 : answers.at(e.index);
    if (digest != want.digest) {
      result.fail(key + ": response differs from the library's answer");
      continue;
    }
    if (options.seed == kDefaultSeed || e.kind != Kind::kNovel) {
      const auto it = expected.find(key);
      if (it == expected.end()) {
        result.fail(key + ": no committed digest in daemon.digests");
        continue;
      }
      if (it->second != digest) {
        result.fail(key + ": response digest differs from the committed one");
        continue;
      }
    }
    if (want.problem) result.fail(key + ": " + *want.problem);
  }
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

RunResult write_daemon_expected(const RunOptions& options) {
  RunResult result;
  ExpectedMap digests;
  auto cache = std::make_shared<ThroughputCache>();
  const std::vector<Request> hot = make_hot();
  for (std::size_t i = 0; i < hot.size(); ++i) {
    digests[kind_key(Kind::kHot, i)] =
        Digest().add(allocate_locally(hot[i].allocate, cache).text).hex();
    digests[kind_key(Kind::kLint, i)] = Digest().add(lint_locally(hot[i], cache.get())).hex();
  }
  const std::vector<Request> novel = make_novel_pool(options.seed);
  for (std::size_t k = 0; k < novel.size(); ++k) {
    digests[kind_key(Kind::kNovel, k)] =
        Digest().add(allocate_locally(novel[k].allocate, cache).text).hex();
  }
  write_expected(options.expected_dir + "/daemon.digests", digests,
                 "# sdfmapd response digests (timing-scrubbed), seed 1\n");
  result.attempted = static_cast<long>(digests.size());
  return result;
}


/// Service counters summed over the epochs of one phase.
struct ServiceDelta {
  long lookups = 0, hits = 0, disk_hits = 0, sheds = 0, offered = 0;

  void add(const ServiceMetrics& before, const ServiceMetrics& after) {
    lookups += after.cache.lookups() - before.cache.lookups();
    hits += after.cache.hits - before.cache.hits;
    disk_hits += after.cache.disk_hits - before.cache.disk_hits;
    const AdmissionStats& a = before.admission;
    const AdmissionStats& b = after.admission;
    sheds += (b.shed_queue_full - a.shed_queue_full) + (b.shed_deadline - a.shed_deadline) +
             (b.shed_draining - a.shed_draining) + (b.shed_cancelled - a.shed_cancelled);
    offered += (b.admitted - a.admitted) + (b.shed_queue_full - a.shed_queue_full);
  }
};

/// The output check of one epoch's exchanges, run between epochs.
using EpochCheck = std::function<void(std::vector<Exchange>&, const Setup&)>;

/// One measured phase: epochs of closed-loop traffic, each on a freshly
/// set-up server and store, until `seconds` of traffic have run. Each
/// epoch's exchanges go through `check` before its server is torn down. Set-up
/// times land in `setup_seconds`. With a tracer, the windows alternate
/// between traced (`sample`) and untraced (`untraced`), the first window of
/// every second epoch untraced, and the last epoch's server stays up in
/// `live` for the layer probes.
struct Phase {
  std::vector<Exchange> exchanges;
  OpSample sample;
  OpSample untraced;
  ServiceDelta service;
  std::uintmax_t store_bytes = 0;
};

Phase run_phase(const RunOptions& options, double seconds, std::uint64_t stream, Tracer* tracer,
                const EpochCheck& check, int& setups, std::vector<double>& setup_seconds,
                Setup& live) {
  Phase phase;
  double traffic_seconds = 0;
  for (std::uint64_t epoch = 0; traffic_seconds < seconds; ++epoch) {
    const auto t0 = Clock::now();
    live = set_up(options, setups++);
    const auto t1 = Clock::now();
    setup_seconds.push_back(seconds_between(t0, t1));

    const ServiceMetrics before = live.server->metrics();
    std::vector<Exchange> exchanges =
        closed_loop(live, options.seed, (stream << 20) + epoch, tracer, phase.sample,
                    tracer ? &phase.untraced : nullptr, epoch % 2 == 1);
    traffic_seconds += seconds_between(t1, Clock::now());
    phase.service.add(before, live.server->metrics());
    phase.store_bytes = directory_bytes(live.store_dir);
    check(exchanges, live);
    for (Exchange& e : exchanges) {
      phase.sample.op_seconds.push_back(seconds_between(e.sent, e.done));
      phase.exchanges.push_back(std::move(e));
    }
    if (!(tracer && traffic_seconds >= seconds)) tear_down(live);
  }
  return phase;
}

void report_phase(const char* label, const Phase& phase, RunResult& result) {
  const auto novel = std::count_if(phase.exchanges.begin(), phase.exchanges.end(),
                                   [](const Exchange& e) { return e.kind == Kind::kNovel; });
  std::ostringstream os;
  os << "daemon " << label << ": " << phase.exchanges.size() << " requests, " << novel
     << " novel, cache " << phase.service.hits << "/" << phase.service.lookups
     << " hits (" << phase.service.disk_hits << " from disk), store "
     << (phase.store_bytes >> 10) << " KiB";
  result.report.push_back(os.str());
}

}  // namespace

RunResult run_daemon(const RunOptions& options) {
  if (options.write_expected) return write_daemon_expected(options);
  RunResult result;
  TaskPool::set_global_jobs(1);
  std::filesystem::create_directories(options.work_dir);

  // Two set-ups before the measurement so setup_s is a median of several
  // even for a short run; every epoch adds one more.
  std::vector<double> setup_seconds;
  int setups = 0;
  Setup live;
  for (int rep = 0; rep < kSetupRepeats - 1; ++rep) {
    const auto t0 = Clock::now();
    live = set_up(options, setups++);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    tear_down(live);
  }

  ExpectedMap expected;
  (void)read_expected(options.expected_dir + "/daemon.digests", expected);

  NovelAnswers answers;
  const EpochCheck check = [&](std::vector<Exchange>& exchanges, const Setup& s) {
    check_exchanges(exchanges, s, options, expected, answers, result);
  };
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const Phase plain =
      run_phase(options, untraced_seconds, 0, nullptr, check, setups, setup_seconds, live);
  report_phase("untraced", plain, result);
  if (!options.trace) {
    add_end_to_end(result, setup_seconds, plain.sample);
    return result;
  }

  // ---- traced run: the same traffic with client-side spans in every second
  // window, then the layer probes on a sample of the requests against the
  // last epoch's server.
  Tracer tracer;
  const Phase traced_phase =
      run_phase(options, options.seconds / 2, 1, &tracer, check, setups, setup_seconds, live);
  report_phase("traced", traced_phase, result);

  std::vector<double> wait_ms, run_ms, overhead_ms;
  for (const Exchange& e : traced_phase.exchanges) {
    if (!e.ok || !e.saw_queued || !e.saw_running) continue;
    wait_ms.push_back(1e3 * seconds_between(e.queued, e.running));
    run_ms.push_back(1e3 * seconds_between(e.running, e.done));
    overhead_ms.push_back(1e3 * seconds_between(e.sent, e.queued));
  }
  result.metrics.set("admission.wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  result.metrics.set("admission.wait_ms_p90", quantile(wait_ms, 0.9), "ms");
  result.metrics.set("server.run_ms_p50", quantile(run_ms, 0.5), "ms");
  result.metrics.set("server.run_ms_p90", quantile(run_ms, 0.9), "ms");
  result.metrics.set("client.overhead_ms_p50", quantile(overhead_ms, 0.5), "ms");
  const ServiceDelta& d = traced_phase.service;
  const auto ratio = [](long num, long den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  result.metrics.set("admission.shed_ratio", ratio(d.sheds, d.offered), "ratio");
  result.metrics.set("cache.hit_ratio", ratio(d.hits, d.lookups), "ratio");
  result.metrics.set("persistent_cache.disk_hit_ratio", ratio(d.disk_hits, d.lookups), "ratio");

  // Layer probes on the hot set and the first novel requests served.
  std::vector<const AllocateRequest*> sample;
  std::vector<const Local*> sample_local;
  for (std::size_t i = 0; i < live.hot.size() && i < kProbeRequests; ++i) {
    sample.push_back(&live.hot[i].allocate);
    sample_local.push_back(&live.hot_local[i]);
  }
  std::vector<Local> novel_local;  // the library's answers to the probed novel requests
  novel_local.reserve(kProbeRequests);
  for (const auto& entry : answers) {
    if (novel_local.size() == kProbeRequests) break;
    const AllocateRequest& request = live.novel.at(entry.first).allocate;
    novel_local.push_back(allocate_locally(request, nullptr));
    sample.push_back(&request);
    sample_local.push_back(&novel_local.back());
  }

  double parse_s = 0, decode_s = 0, encode_s = 0, frame_decode_s = 0, frame_kib = 0;
  long apps = 0, allocated = 0, checks = 0;
  bool equivalent = true;
  std::string why_not;
  std::vector<KeptAllocation> kept;
  std::vector<Local> parsed;  // keeps the probed models alive for `kept`
  parsed.reserve(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const AllocateRequest& request = *sample[i];
    const std::string payload = encode_allocate_request(request);
    auto t0 = Clock::now();
    const std::string frame_bytes = encode_frame(Frame{FrameType::kAllocate, i + 1, payload});
    auto t1 = Clock::now();
    encode_s += seconds_between(t0, t1);
    frame_kib += static_cast<double>(frame_bytes.size()) / 1024.0;
    t0 = Clock::now();
    FrameDecoder decoder;
    decoder.feed(frame_bytes);
    Frame frame;
    const DecodeStatus status = decoder.next(frame);
    t1 = Clock::now();
    frame_decode_s += seconds_between(t0, t1);
    t0 = Clock::now();
    const auto decoded = decode_allocate_request(frame.payload);
    t1 = Clock::now();
    decode_s += seconds_between(t0, t1);
    if (status != DecodeStatus::kFrame || !decoded || decoded->app_text != request.app_text) {
      result.fail("probe: request " + std::to_string(i) + " did not survive the frame round trip");
    }

    t0 = Clock::now();
    std::istringstream app_in(request.app_text), arch_in(request.platform_text);
    Local local{read_application(app_in), read_architecture(arch_in), {}, {}};
    t1 = Clock::now();
    parse_s += seconds_between(t0, t1);
    parsed.push_back(std::move(local));
    Local& p = parsed.back();
    p.result = composed_allocate(p.app, p.arch, strategy_for(request, live.server->cache()),
                                 &tracer, tracer.next_op());
    ++apps;
    if (p.result.success) {
      ++allocated;
      checks += p.result.throughput_checks;
      kept.push_back({&p.app, p.arch, p.result});
    }
    if (allocation_digest(p.app, p.result) !=
        allocation_digest(sample_local[i]->app, sample_local[i]->result)) {
      equivalent = false;
      why_not = "request " + std::to_string(i) + ": composed layer calls differ from the server";
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(sample.size(), 1));
  result.metrics.set("io.parse_us", 1e6 * parse_s / n, "us");
  result.metrics.set("protocol.decode_us", 1e6 * decode_s / n, "us");
  result.metrics.set("frame.encode_ns_per_kb", frame_kib > 0 ? 1e9 * encode_s / frame_kib : 0,
                     "ns/KiB");
  result.metrics.set("frame.decode_ns_per_kb",
                     frame_kib > 0 ? 1e9 * frame_decode_s / frame_kib : 0, "ns/KiB");
  add_strategy_layers(result, tracer, apps, allocated, checks, equivalent, why_not);
  add_probe_layers(result, kept, options.work_dir, false);

  {
    PersistentCacheOptions store;
    store.dir = live.store_dir;
    const double bytes = static_cast<double>(directory_bytes(live.store_dir));
    PersistentCache reader(store);
    const auto t0 = Clock::now();
    const auto records = reader.open_and_recover();
    const double seconds = seconds_between(t0, Clock::now());
    result.metrics.set("persistent_cache.recover_mb_per_s",
                       seconds > 0 ? bytes / 1e6 / seconds : 0, "MB/s");
    result.report.push_back("probe: recovered " + std::to_string(records.size()) +
                            " records from the live store");
  }
  add_unmeasured(result, {{"task_pool.busy_ratio", "ratio"}, {"task_pool.steal_ratio", "ratio"}},
                 "the daemon serves on its own worker threads, no parallel region");
  add_trace_overhead(result, plain.sample, traced_phase.untraced, traced_phase.sample);
  if (!tracer.write(options.work_dir + "/spans-daemon.jsonl")) {
    result.report.push_back("could not write the span file");
  }
  tear_down(live);
  return result;
}

}  // namespace perfbench
