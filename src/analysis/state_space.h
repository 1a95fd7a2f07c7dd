#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/analysis/error.h"
#include "src/sdf/graph.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/budget.h"
#include "src/support/rational.h"

namespace sdfmap {

/// Tuning knobs and safety limits for the self-timed execution engines.
/// Exceeding any count cap or the budget throws AnalysisError (see
/// src/analysis/error.h) with the matching kind.
struct ExecutionLimits {
  /// Abort when more than this many states have been stored.
  std::uint64_t max_states = 10'000'000;
  /// Abort when any channel accumulates more tokens than this; in a
  /// strongly-bounded graph tokens never exceed the per-iteration traffic,
  /// so hitting the limit signals divergent accumulation.
  std::int64_t max_tokens_per_channel = 100'000'000;
  /// Abort when this many fire/end events happen at one time instant
  /// (zero-execution-time cycle).
  std::uint64_t max_events_per_instant = 1'000'000;
  /// Abort after this many time-advance steps without finding a recurrent
  /// state (livelock guard; generously above any real exploration).
  std::uint64_t max_time_steps = 200'000'000;
  /// Wall-clock deadline and cooperative cancellation, polled every few
  /// engine steps. Default-constructed: unlimited.
  AnalysisBudget budget;
};

/// One transition of the state space, reported to trace observers: at time
/// `time`, `ended` firings completed and `started` firings began. Used by the
/// Fig. 5 benchmark to print the explored state spaces.
struct TransitionEvent {
  std::int64_t time = 0;
  std::vector<ActorId> ended;
  std::vector<ActorId> started;
};

using TraceObserver = std::function<void(const TransitionEvent&)>;

/// Result of a self-timed state-space throughput analysis (Sec. 8.2, [10]).
struct SelfTimedResult {
  enum class Status { kPeriodic, kDeadlock };
  Status status = Status::kDeadlock;

  /// Exact time per graph iteration in the periodic regime (valid when
  /// periodic). Throughput of actor a is γ(a) / iteration_period.
  Rational iteration_period;

  /// Number of distinct states stored until the recurrent state was found.
  std::uint64_t states_stored = 0;
  /// Absolute time at which the recurrent state was first / again reached.
  std::int64_t cycle_start_time = 0;
  std::int64_t cycle_end_time = 0;
  /// Firings inside the periodic phase of the first actor (by index) that
  /// fired there; iteration_period is read off this actor.
  std::int64_t cycle_firings = 0;
  /// Per-actor firing counts inside the periodic phase (k whole iterations);
  /// empty when deadlocked. Feeds the utilization metrics.
  std::vector<std::int64_t> period_firings;
  /// Maximum number of tokens simultaneously present on each channel over the
  /// whole explored execution — the observed buffer occupancy, a certified
  /// bound for the storage-distribution analyses ([21]).
  std::vector<std::int64_t> max_tokens;

  [[nodiscard]] bool deadlocked() const { return status == Status::kDeadlock; }

  /// Iterations per time unit; zero when deadlocked.
  [[nodiscard]] Rational throughput() const {
    if (status == Status::kDeadlock || iteration_period.is_zero()) return Rational(0);
    return iteration_period.inverse();
  }

  /// Firing throughput of one actor: γ(a) / iteration period.
  [[nodiscard]] Rational actor_throughput(std::int64_t gamma_a) const {
    return throughput() * Rational(gamma_a);
  }
};

/// Computes the throughput of a timed SDFG by self-timed execution: every
/// actor fires as soon as all inputs carry enough tokens (unbounded
/// auto-concurrency unless limited by self-loops), states are hashed until a
/// recurrent state closes the periodic phase, and the iteration period is
/// read off the period's duration and firing count.
///
/// Requirements: `g` consistent and every actor able to fire infinitely often
/// in bounded memory (in practice: strongly connected, or bounded by buffer
/// back-edges). Violations surface as ThroughputError via the limits.
///
/// `gamma` must be the repetition vector of `g`; `observer`, when set,
/// receives every transition of the execution (transient + one period).
[[nodiscard]] SelfTimedResult self_timed_throughput(const Graph& g,
                                                    const RepetitionVector& gamma,
                                                    const ExecutionLimits& limits = {},
                                                    const TraceObserver& observer = {});

/// Convenience overload computing γ internally. Throws std::invalid_argument
/// when inconsistent.
[[nodiscard]] SelfTimedResult self_timed_throughput(const Graph& g,
                                                    const ExecutionLimits& limits = {},
                                                    const TraceObserver& observer = {});

}  // namespace sdfmap
