// Differential validation of the run-length-encoded self-timed engine: a
// deliberately naive simulator (plain multiset of remaining times, one time
// unit per tick) implements the same semantics; both must agree on every
// result field (status, period, stored states, cycle bounds and firings,
// per-actor period firings, channel occupancy) and on the observer stream,
// event for event, for randomized strongly-connected multi-rate graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "src/analysis/state_space.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

/// What the naive simulator saw: the fields self_timed_throughput reports and
/// its observer stream.
struct NaiveOutcome {
  bool finished = false;  // false: ran out of simulated time
  SelfTimedResult result;
  std::vector<TransitionEvent> events;
};

class NaiveSelfTimed {
 public:
  explicit NaiveSelfTimed(const Graph& g) : g_(g) {
    tokens_.resize(g.num_channels());
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      tokens_[c] = g.channels()[c].initial_tokens;
    }
    max_tokens_ = tokens_;
    remaining_.resize(g.num_actors());
    fires_.assign(g.num_actors(), 0);
  }

  /// Ticks one time unit at a time, sampling full states at completions of
  /// the reference actor, until a sample recurs, everything stops, or
  /// `max_time` passes.
  NaiveOutcome run(const RepetitionVector& gamma, std::int64_t max_time) {
    NaiveOutcome out;
    std::uint32_t ref = 0;
    for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
      if (gamma[a] < gamma[ref]) ref = a;
    }
    struct Sample {
      std::int64_t time;
      std::vector<std::int64_t> fires;
    };
    std::map<std::vector<std::int64_t>, Sample> seen;
    std::int64_t last_ref = -1;
    SelfTimedResult& result = out.result;
    for (std::int64_t now = 0; now < max_time; ++now) {
      TransitionEvent event;
      event.time = now;
      settle(event);
      if (now == 0 || !event.ended.empty() || !event.started.empty()) {
        out.events.push_back(event);
      }
      if (fires_[ref] != last_ref) {
        last_ref = fires_[ref];
        const auto [it, inserted] = seen.try_emplace(encode(), Sample{now, fires_});
        if (!inserted) {
          const Sample& prev = it->second;
          // The period is read off the first actor that fired in between.
          for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
            const std::int64_t delta = fires_[a] - prev.fires[a];
            if (delta > 0) {
              result.status = SelfTimedResult::Status::kPeriodic;
              result.iteration_period = Rational(now - prev.time) * Rational(gamma[a], delta);
              result.cycle_start_time = prev.time;
              result.cycle_end_time = now;
              result.cycle_firings = delta;
              for (std::uint32_t b = 0; b < g_.num_actors(); ++b) {
                result.period_firings.push_back(fires_[b] - prev.fires[b]);
              }
              break;
            }
          }
          return finish(std::move(out), seen.size());
        }
      }
      bool active = false;
      for (auto& rem : remaining_) {
        for (auto& r : rem) --r;
        active = active || !rem.empty();
      }
      if (!active) return finish(std::move(out), seen.size());
    }
    return out;
  }

 private:
  NaiveOutcome finish(NaiveOutcome out, std::size_t states) const {
    out.finished = true;
    out.result.states_stored = states;
    out.result.max_tokens = max_tokens_;
    return out;
  }

  bool can_fire(std::uint32_t a) const {
    for (const ChannelId c : g_.actor(ActorId{a}).inputs) {
      if (tokens_[c.value] < g_.channel(c).consumption_rate) return false;
    }
    return true;
  }

  /// Pass by pass until nothing changes: first every finished firing ends,
  /// one at a time, then every enabled firing starts, one at a time.
  void settle(TransitionEvent& event) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
        auto& rem = remaining_[a];
        for (auto it = rem.begin(); it != rem.end();) {
          if (*it == 0) {
            for (const ChannelId c : g_.actor(ActorId{a}).outputs) {
              tokens_[c.value] += g_.channel(c).production_rate;
              max_tokens_[c.value] = std::max(max_tokens_[c.value], tokens_[c.value]);
            }
            ++fires_[a];
            event.ended.push_back(ActorId{a});
            it = rem.erase(it);
            changed = true;
          } else {
            ++it;
          }
        }
      }
      for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
        while (can_fire(a)) {
          for (const ChannelId c : g_.actor(ActorId{a}).inputs) {
            tokens_[c.value] -= g_.channel(c).consumption_rate;
          }
          remaining_[a].push_back(g_.actor(ActorId{a}).execution_time);
          event.started.push_back(ActorId{a});
          changed = true;
        }
      }
    }
  }

  std::vector<std::int64_t> encode() const {
    std::vector<std::int64_t> key = tokens_;
    for (const auto& rem : remaining_) {
      auto sorted = rem;
      std::sort(sorted.begin(), sorted.end());
      key.push_back(static_cast<std::int64_t>(sorted.size()));
      key.insert(key.end(), sorted.begin(), sorted.end());
    }
    return key;
  }

  const Graph& g_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<std::vector<std::int64_t>> remaining_;
  std::vector<std::int64_t> fires_;
};

class SelfTimedReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelfTimedReference, EngineMatchesNaiveSimulator) {
  Rng rng(GetParam());
  const std::size_t n = static_cast<std::size_t>(rng.uniform(2, 5));
  std::vector<std::int64_t> gamma(n);
  for (auto& v : gamma) v = rng.uniform(1, 3);
  Graph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_actor("a" + std::to_string(i), rng.uniform(1, 6));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = (i + 1) % n;
    const std::int64_t lcm = std::lcm(gamma[i], gamma[d]);
    g.add_channel(ActorId{static_cast<std::uint32_t>(i)},
                  ActorId{static_cast<std::uint32_t>(d)}, lcm / gamma[i], lcm / gamma[d],
                  d == 0 ? (lcm / gamma[d]) * gamma[d] * rng.uniform(1, 2) : 0);
  }
  if (rng.chance(0.5)) {
    const auto a = static_cast<std::uint32_t>(rng.index(n));
    g.add_channel(ActorId{a}, ActorId{a}, 1, 1, rng.uniform(1, 2));
  }

  const auto rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv);
  std::vector<TransitionEvent> events;
  const SelfTimedResult engine =
      self_timed_throughput(g, *rv, {}, [&](const TransitionEvent& e) { events.push_back(e); });

  NaiveSelfTimed reference(g);
  const NaiveOutcome naive = reference.run(*rv, 5000);
  ASSERT_TRUE(naive.finished) << "seed " << GetParam();
  const SelfTimedResult& want = naive.result;

  EXPECT_EQ(engine.status, want.status) << "seed " << GetParam();
  EXPECT_EQ(engine.iteration_period, want.iteration_period) << "seed " << GetParam();
  EXPECT_EQ(engine.states_stored, want.states_stored) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_start_time, want.cycle_start_time) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_end_time, want.cycle_end_time) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_firings, want.cycle_firings) << "seed " << GetParam();
  EXPECT_EQ(engine.period_firings, want.period_firings) << "seed " << GetParam();
  EXPECT_EQ(engine.max_tokens, want.max_tokens) << "seed " << GetParam();
  ASSERT_EQ(events.size(), naive.events.size()) << "seed " << GetParam();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, naive.events[i].time) << "seed " << GetParam() << " event " << i;
    EXPECT_EQ(events[i].ended, naive.events[i].ended) << "seed " << GetParam() << " event " << i;
    EXPECT_EQ(events[i].started, naive.events[i].started)
        << "seed " << GetParam() << " event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfTimedReference, ::testing::Range<std::uint64_t>(1, 81));

}  // namespace
}  // namespace sdfmap
