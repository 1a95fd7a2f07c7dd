#include "src/analysis/state_space.h"

#include <algorithm>

#include "src/analysis/explore.h"
#include "src/analysis/remaining_multiset.h"

namespace sdfmap {

namespace {

/// The plain self-timed semantics: token counts plus, per actor, the multiset
/// of absolute finish times of its active firings. Every actor fires as soon
/// as its inputs allow, as many times as they allow.
class SelfTimedSemantics : public ExploreHooks {
 public:
  SelfTimedSemantics(const Graph& g, const ExecutionLimits& limits)
      : g_(g), limits_(limits), remaining_(g.num_actors()), fires_(g.num_actors(), 0) {
    tokens_.resize(g.num_channels());
    for (std::size_t i = 0; i < g.num_channels(); ++i) {
      tokens_[i] = g.channels()[i].initial_tokens;
    }
    max_tokens_ = tokens_;
  }

  /// Ends finished firings and starts all enabled firings, repeating until
  /// stable (zero-time firings cascade). A batch of simultaneous completions
  /// is produced per channel at once.
  void fixpoint(std::int64_t now, BudgetGuard& budget, TransitionEvent* trace) {
    const std::size_t num_actors = g_.num_actors();
    std::uint64_t instant_events = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t a = 0; a < num_actors; ++a) {
        const std::int64_t ended = remaining_[a].due(now);
        if (ended == 0) continue;
        remaining_[a].pop_front();
        for (const ChannelId cid : g_.actor(ActorId{a}).outputs) {
          tokens_[cid.value] += g_.channel(cid).production_rate * ended;
          max_tokens_[cid.value] = std::max(max_tokens_[cid.value], tokens_[cid.value]);
          if (tokens_[cid.value] > limits_.max_tokens_per_channel) {
            throw AnalysisError(
                AnalysisErrorKind::kTokenDivergence,
                "self_timed_throughput: unbounded token accumulation on channel '" +
                    g_.channel(cid).name + "'");
          }
        }
        fires_[a] += ended;
        if (trace != nullptr) trace->ended.insert(trace->ended.end(), ended, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(ended);
      }
      for (std::uint32_t a = 0; a < num_actors; ++a) {
        const std::int64_t started = enabled_firings(a);
        if (started == 0) continue;
        for (const ChannelId cid : g_.actor(ActorId{a}).inputs) {
          tokens_[cid.value] -= g_.channel(cid).consumption_rate * started;
        }
        remaining_[a].add(now + g_.actor(ActorId{a}).execution_time, started);
        if (trace != nullptr) trace->started.insert(trace->started.end(), started, ActorId{a});
        changed = true;
        instant_events += static_cast<std::uint64_t>(started);
      }
      if (instant_events > limits_.max_events_per_instant) {
        throw AnalysisError(
            AnalysisErrorKind::kZeroDelayCycle,
            "self_timed_throughput: zero-delay cycle (infinitely many events in one instant)");
      }
      budget.check();
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& fires() const { return fires_; }

  void encode(StateKey& key, std::int64_t now) const {
    key.words.clear();
    key.words.reserve(tokens_.size() + remaining_.size() * 3);
    key.words.insert(key.words.end(), tokens_.begin(), tokens_.end());
    for (const auto& r : remaining_) r.encode(now, key.words);
  }

  [[nodiscard]] std::int64_t next_completion() const {
    std::int64_t next = kNoCompletion;
    for (const auto& rem : remaining_) {
      if (!rem.empty()) next = std::min(next, rem.front());
    }
    return next;
  }

  void finish(SelfTimedResult& result, const Extra* /*recurrent*/) {
    result.max_tokens = std::move(max_tokens_);
  }

 private:
  /// Number of additional firings of `a` enabled by the current tokens (min
  /// over inputs of floor(tokens/rate)); actors without inputs are capped by
  /// max_tokens_per_channel — they are unbounded in self-timed execution and
  /// trip the token-accumulation guard when they produce.
  [[nodiscard]] std::int64_t enabled_firings(std::uint32_t a) const {
    std::int64_t enabled = limits_.max_tokens_per_channel;
    for (const ChannelId cid : g_.actor(ActorId{a}).inputs) {
      enabled = std::min(enabled, tokens_[cid.value] / g_.channel(cid).consumption_rate);
      if (enabled == 0) break;
    }
    return enabled;
  }

  const Graph& g_;
  const ExecutionLimits& limits_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<RemainingMultiset> remaining_;  // per actor
  std::vector<std::int64_t> fires_;
};

}  // namespace

SelfTimedResult self_timed_throughput(const Graph& g, const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  const auto gamma = compute_repetition_vector(g);
  if (!gamma) throw std::invalid_argument("self_timed_throughput: inconsistent SDFG");
  return self_timed_throughput(g, *gamma, limits, observer);
}

SelfTimedResult self_timed_throughput(const Graph& g, const RepetitionVector& gamma,
                                      const ExecutionLimits& limits,
                                      const TraceObserver& observer) {
  SelfTimedSemantics sem(g, limits);
  return explore(sem, gamma, limits, "self_timed_throughput", observer);
}

}  // namespace sdfmap
