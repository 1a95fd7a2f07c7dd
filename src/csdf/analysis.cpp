#include "src/csdf/analysis.h"

#include <algorithm>
#include <numeric>

#include "src/analysis/explore.h"
#include "src/support/rational.h"

namespace sdfmap {

std::optional<CsdfRepetition> csdf_repetition_vector(const CsdfGraph& g) {
  const std::size_t n = g.num_actors();
  std::vector<std::optional<Rational>> frac(n);
  std::vector<std::vector<std::uint32_t>> components;
  std::vector<std::uint32_t> queue;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (frac[root]) continue;
    frac[root] = Rational(1);
    components.emplace_back();
    components.back().push_back(root);
    queue.assign(1, root);
    while (!queue.empty()) {
      const std::uint32_t u = queue.back();
      queue.pop_back();
      const auto visit = [&](const CsdfChannel& c) {
        const Rational ratio(c.production_per_cycle(), c.consumption_per_cycle());
        const std::uint32_t src = c.src.value;
        const std::uint32_t dst = c.dst.value;
        const std::uint32_t other = src == u ? dst : src;
        const Rational expected = src == u ? *frac[u] * ratio : *frac[u] / ratio;
        if (!frac[other]) {
          frac[other] = expected;
          components.back().push_back(other);
          queue.push_back(other);
          return true;
        }
        return *frac[other] == expected;
      };
      for (const CsdfChannelId cid : g.actor(CsdfActorId{u}).outputs) {
        if (!visit(g.channel(cid))) return std::nullopt;
      }
      for (const CsdfChannelId cid : g.actor(CsdfActorId{u}).inputs) {
        if (g.channel(cid).src.value == u) continue;  // self-loop visited once
        if (!visit(g.channel(cid))) return std::nullopt;
      }
    }
  }

  CsdfRepetition result;
  result.cycles.assign(n, 0);
  result.firings.assign(n, 0);
  for (const auto& members : components) {
    std::int64_t den_lcm = 1;
    for (const std::uint32_t a : members) den_lcm = checked_lcm(den_lcm, frac[a]->den());
    std::int64_t num_gcd = 0;
    for (const std::uint32_t a : members) {
      result.cycles[a] = checked_mul(frac[a]->num(), den_lcm / frac[a]->den());
      num_gcd = std::gcd(num_gcd, result.cycles[a]);
    }
    if (num_gcd > 1) {
      for (const std::uint32_t a : members) result.cycles[a] /= num_gcd;
    }
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    result.firings[a] =
        checked_mul(result.cycles[a], static_cast<std::int64_t>(g.actor(CsdfActorId{a}).phases()));
  }
  return result;
}

namespace {

bool phase_enabled(const CsdfGraph& g, std::uint32_t a, std::int64_t phase,
                   const std::vector<std::int64_t>& tokens) {
  for (const CsdfChannelId cid : g.actor(CsdfActorId{a}).inputs) {
    const CsdfChannel& c = g.channel(cid);
    if (tokens[cid.value] < c.consumption[static_cast<std::size_t>(phase)]) return false;
  }
  return true;
}

void phase_consume(const CsdfGraph& g, std::uint32_t a, std::int64_t phase,
                   std::vector<std::int64_t>& tokens) {
  for (const CsdfChannelId cid : g.actor(CsdfActorId{a}).inputs) {
    tokens[cid.value] -= g.channel(cid).consumption[static_cast<std::size_t>(phase)];
  }
}

void phase_produce(const CsdfGraph& g, std::uint32_t a, std::int64_t phase,
                   std::vector<std::int64_t>& tokens) {
  for (const CsdfChannelId cid : g.actor(CsdfActorId{a}).outputs) {
    tokens[cid.value] += g.channel(cid).production[static_cast<std::size_t>(phase)];
  }
}

}  // namespace

bool csdf_is_deadlock_free(const CsdfGraph& g) {
  const auto repetition = csdf_repetition_vector(g);
  if (!repetition) return false;

  std::vector<std::int64_t> tokens(g.num_channels());
  for (std::size_t c = 0; c < g.num_channels(); ++c) {
    tokens[c] = g.channels()[c].initial_tokens;
  }
  std::vector<std::int64_t> phase(g.num_actors(), 0);
  std::vector<std::int64_t> remaining = repetition->firings;
  std::int64_t left = std::accumulate(remaining.begin(), remaining.end(), std::int64_t{0});

  bool progress = true;
  while (left > 0 && progress) {
    progress = false;
    for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
      while (remaining[a] > 0 && phase_enabled(g, a, phase[a], tokens)) {
        phase_consume(g, a, phase[a], tokens);
        phase_produce(g, a, phase[a], tokens);
        phase[a] = (phase[a] + 1) % static_cast<std::int64_t>(g.actor(CsdfActorId{a}).phases());
        --remaining[a];
        --left;
        progress = true;
      }
    }
  }
  return left == 0;
}

namespace {

/// Phase-serialized CSDF semantics: each actor is idle or executes one phase,
/// held as the absolute finish time of that phase (kIdle when idle); the next
/// phase starts as soon as every input holds its consumption.
class CsdfSemantics : public ExploreHooks {
 public:
  CsdfSemantics(const CsdfGraph& g, const ExecutionLimits& limits)
      : g_(g),
        limits_(limits),
        phase_(g.num_actors(), 0),
        finish_(g.num_actors(), kIdle),
        fires_(g.num_actors(), 0) {
    tokens_.resize(g.num_channels());
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      tokens_[c] = g.channels()[c].initial_tokens;
    }
  }

  /// Ends the phases finishing at `now` and starts enabled phases, actor by
  /// actor, until nothing changes.
  void fixpoint(std::int64_t now, BudgetGuard& budget, TransitionEvent* /*trace*/) {
    const std::size_t n = g_.num_actors();
    std::uint64_t instant_events = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t a = 0; a < n; ++a) {
        if (finish_[a] == now) {
          phase_produce(g_, a, phase_[a], tokens_);
          for (const CsdfChannelId cid : g_.actor(CsdfActorId{a}).outputs) {
            if (tokens_[cid.value] > limits_.max_tokens_per_channel) {
              throw AnalysisError(AnalysisErrorKind::kTokenDivergence,
                                  "csdf_self_timed_throughput: unbounded tokens on '" +
                                      g_.channel(cid).name + "'");
            }
          }
          phase_[a] =
              (phase_[a] + 1) % static_cast<std::int64_t>(g_.actor(CsdfActorId{a}).phases());
          finish_[a] = kIdle;
          ++fires_[a];
          changed = true;
          ++instant_events;
        }
        if (finish_[a] == kIdle && phase_enabled(g_, a, phase_[a], tokens_)) {
          phase_consume(g_, a, phase_[a], tokens_);
          finish_[a] = now + g_.actor(CsdfActorId{a})
                                 .phase_execution_times[static_cast<std::size_t>(phase_[a])];
          changed = true;
          ++instant_events;
        }
      }
      if (instant_events > limits_.max_events_per_instant) {
        throw AnalysisError(AnalysisErrorKind::kZeroDelayCycle,
                            "csdf_self_timed_throughput: zero-delay phase cycle");
      }
      budget.check();
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& fires() const { return fires_; }

  /// Tokens, phase indices, then each actor's remaining phase time (-1 idle).
  void encode(StateKey& key, std::int64_t now) const {
    key.words.assign(tokens_.begin(), tokens_.end());
    key.words.insert(key.words.end(), phase_.begin(), phase_.end());
    for (const std::int64_t f : finish_) key.words.push_back(f == kIdle ? -1 : f - now);
  }

  [[nodiscard]] std::int64_t next_completion() const {
    std::int64_t next = kNoCompletion;
    for (const std::int64_t f : finish_) {
      if (f != kIdle) next = std::min(next, f);
    }
    return next;
  }

 private:
  static constexpr std::int64_t kIdle = -1;

  const CsdfGraph& g_;
  const ExecutionLimits& limits_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> phase_;
  std::vector<std::int64_t> finish_;
  std::vector<std::int64_t> fires_;
};

}  // namespace

SelfTimedResult csdf_self_timed_throughput(const CsdfGraph& g,
                                           const ExecutionLimits& limits) {
  const auto repetition = csdf_repetition_vector(g);
  if (!repetition) {
    throw std::invalid_argument("csdf_self_timed_throughput: inconsistent CSDF graph");
  }
  CsdfSemantics sem(g, limits);
  return explore(sem, repetition->firings, limits, "csdf_self_timed_throughput");
}

}  // namespace sdfmap
