#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/error.h"
#include "src/analysis/state_hash.h"
#include "src/analysis/state_space.h"

namespace sdfmap {

/// next_completion() of a semantics with no active firing: time cannot
/// advance, so the execution has deadlocked.
inline constexpr std::int64_t kNoCompletion = std::numeric_limits<std::int64_t>::max();

/// Default hooks of a semantics driven by explore(). A semantics derives from
/// this and hides the hooks it needs.
struct ExploreHooks {
  /// Extra data stored with every sampled state.
  struct Extra {};
  void save(Extra& /*extra*/) const {}
  /// Fills the semantics' own result fields when the exploration stops with a
  /// result (not when no actor can fire at all). `recurrent` is the extra data
  /// of the recurrent state, or null when the execution stopped without one.
  void finish(SelfTimedResult& /*result*/, const Extra* /*recurrent*/) {}
};

/// The recurrent-state exploration shared by every state-space engine
/// (Sec. 8.2, [10]). It owns time, the visited-state table, sampling, period
/// extraction, the deadlock exits, the state and step limits and the
/// once-per-instant budget poll. The semantics owns the execution state and
/// supplies, besides the ExploreHooks:
///
///   void fixpoint(std::int64_t now, BudgetGuard& budget, TransitionEvent* trace);
///       Ends every firing due at `now` and starts everything enabled until
///       nothing changes, polling `budget`; appends to `trace` when non-null.
///   const std::vector<std::int64_t>& fires() const;
///       Completed firings per actor.
///   void encode(StateKey& key, std::int64_t now) const;
///       Serializes the state into `key`, reusing its word storage.
///   std::int64_t next_completion() const;
///       The earliest absolute finish time, or kNoCompletion.
///
/// `gamma` gives the firings per iteration of each actor; `where` prefixes
/// every error message. The semantics is a template parameter, so every call
/// into it is direct (no std::function or virtual call) and can be inlined.
template <typename Semantics>
SelfTimedResult explore(Semantics& sem, const std::vector<std::int64_t>& gamma,
                        const ExecutionLimits& limits, const char* where,
                        const TraceObserver& observer = {}) {
  using Extra = typename Semantics::Extra;
  BudgetGuard budget(limits.budget, where);
  SelfTimedResult result;

  // Recurrence is detected on the sub-sequence of states sampled right after
  // completions of a reference actor, the one with the fewest firings per
  // iteration (the "small subset" of [10]): sampling a periodic sequence at
  // matching progress points preserves recurrence while keeping the stored
  // set proportional to iterations rather than firings.
  const std::size_t num_actors = gamma.size();
  std::size_t ref = num_actors;
  for (std::size_t a = 0; a < num_actors; ++a) {
    if (gamma[a] > 0 && (ref == num_actors || gamma[a] < gamma[ref])) ref = a;
  }
  if (ref == num_actors) return result;  // no fireable actor: trivially deadlocked

  struct Snapshot {
    std::int64_t time = 0;
    std::vector<std::int64_t> fires;
    [[no_unique_address]] Extra extra;
  };
  StateMap<Snapshot> seen;
  // About γ(ref) states are stored per iteration; pre-size the map for a few
  // iterations (capped: exploration may close long before the estimate) to
  // skip the early rehash ladder.
  seen.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min<std::uint64_t>(4096, limits.max_states),
      static_cast<std::uint64_t>(gamma[ref]) * 4 + 16)));

  // One scratch key reused across samples (on a map hit its buffer survives,
  // so steady-state sampling allocates nothing) and one TransitionEvent
  // reused across instants: without an observer it is never touched, with one
  // clear() keeps its capacity.
  StateKey scratch;
  TransitionEvent event;
  TransitionEvent* const trace = observer ? &event : nullptr;
  std::int64_t sampled_ref_fires = -1;
  std::uint64_t steps = 0;
  std::int64_t now = 0;
  const Extra* recurrent = nullptr;

  while (true) {
    if (trace != nullptr) {
      event.time = now;
      event.ended.clear();
      event.started.clear();
    }
    sem.fixpoint(now, budget, trace);
    if (trace != nullptr && (now == 0 || !event.ended.empty() || !event.started.empty())) {
      observer(event);
    }

    const std::vector<std::int64_t>& fires = sem.fires();
    if (fires[ref] != sampled_ref_fires) {
      sampled_ref_fires = fires[ref];
      sem.encode(scratch, now);
      // try_emplace leaves `scratch` untouched when the key already exists
      // (recurrence hit) and moves its buffer into the map otherwise.
      const auto [it, inserted] = seen.try_emplace(std::move(scratch));
      if (!inserted) {
        const Snapshot& prev = it->second;
        // In a connected consistent graph the firings between two equal
        // states are k whole iterations; any actor that fired gives the
        // period. If none fired, everything has stopped: deadlock.
        for (std::size_t a = 0; a < num_actors; ++a) {
          const std::int64_t delta = fires[a] - prev.fires[a];
          if (delta > 0 && gamma[a] > 0) {
            result.status = SelfTimedResult::Status::kPeriodic;
            result.iteration_period = Rational(now - prev.time) * Rational(gamma[a], delta);
            result.cycle_start_time = prev.time;
            result.cycle_end_time = now;
            result.cycle_firings = delta;
            result.period_firings.resize(num_actors);
            for (std::size_t b = 0; b < num_actors; ++b) {
              result.period_firings[b] = fires[b] - prev.fires[b];
            }
            break;
          }
        }
        recurrent = &prev.extra;
        break;
      }
      it->second.time = now;
      it->second.fires = fires;
      sem.save(it->second.extra);
      if (seen.size() > limits.max_states) {
        throw AnalysisError(AnalysisErrorKind::kStateLimit,
                            std::string(where) + ": state limit exceeded");
      }
    } else if (++steps > limits.max_time_steps) {
      throw AnalysisError(AnalysisErrorKind::kStepLimit,
                          std::string(where) + ": step limit exceeded (livelock?)");
    }
    budget.check();

    const std::int64_t next = sem.next_completion();
    if (next == kNoCompletion) break;  // nothing active, nothing can start
    now = next;
  }
  result.states_stored = seen.size();
  sem.finish(result, recurrent);
  return result;
}

}  // namespace sdfmap
