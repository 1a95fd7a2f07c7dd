#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>

#include "src/analysis/state_space.h"
#include "src/csdf/analysis.h"
#include "src/csdf/graph.h"
#include "src/gen/generator.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

TEST(CsdfGraph, ConstructionAndValidation) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {2, 3});
  const CsdfActorId b = g.add_actor("b", {1});
  EXPECT_EQ(g.actor(a).phases(), 2u);
  const CsdfChannelId c = g.add_channel(a, b, {1, 2}, {1}, 1, "c");
  EXPECT_EQ(g.channel(c).production_per_cycle(), 3);
  EXPECT_EQ(g.channel(c).consumption_per_cycle(), 1);

  EXPECT_THROW(g.add_actor("bad", {}), std::invalid_argument);
  EXPECT_THROW(g.add_actor("bad", {-1}), std::invalid_argument);
  EXPECT_THROW(g.add_channel(a, b, {1}, {1}), std::invalid_argument);      // phase mismatch
  EXPECT_THROW(g.add_channel(a, b, {0, 0}, {1}), std::invalid_argument);   // all-zero rates
  EXPECT_THROW(g.add_channel(a, b, {1, 1}, {1}, -1), std::invalid_argument);
}

TEST(CsdfRepetitionVector, BilsenStyleExample) {
  // Classic CSDF example: a has phases (1,1), producing (1,2); b consumes
  // (2,1) over two phases. Per cycle: a emits 3, b eats 3 -> q = (1, 1),
  // firings = (2, 2).
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1, 1});
  const CsdfActorId b = g.add_actor("b", {1, 1});
  g.add_channel(a, b, {1, 2}, {2, 1}, 0);
  g.add_channel(b, a, {2, 1}, {1, 2}, 3);
  const auto r = csdf_repetition_vector(g);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->cycles, (std::vector<std::int64_t>{1, 1}));
  EXPECT_EQ(r->firings, (std::vector<std::int64_t>{2, 2}));
}

TEST(CsdfRepetitionVector, MultiRateCycles) {
  // a (1 phase) produces 2/cycle; b (2 phases) consumes 1 per phase = 2 per
  // cycle... make them unbalanced: b consumes (1, 2) = 3/cycle -> q = (3, 2).
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1});
  const CsdfActorId b = g.add_actor("b", {1, 1});
  g.add_channel(a, b, {2}, {1, 2});
  const auto r = csdf_repetition_vector(g);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->cycles, (std::vector<std::int64_t>{3, 2}));
  EXPECT_EQ(r->firings, (std::vector<std::int64_t>{3, 4}));
}

TEST(CsdfRepetitionVector, InconsistentDetected) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1});
  const CsdfActorId b = g.add_actor("b", {1});
  g.add_channel(a, b, {2}, {1});
  g.add_channel(b, a, {1}, {1});
  EXPECT_FALSE(csdf_repetition_vector(g).has_value());
}

TEST(CsdfDeadlock, PhaseOrderMatters) {
  // b consumes (2, 1): its first phase needs 2 tokens. With only 1 initial
  // token and a producing 1 per firing... a's ring feedback provides more.
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1});
  const CsdfActorId b = g.add_actor("b", {1, 1});
  g.add_channel(a, b, {1}, {2, 1});
  g.add_channel(b, a, {2, 1}, {1}, 1);
  // One iteration: a fires 3, b cycles once. a can fire once (1 token on
  // feedback), giving b 1 token: b phase 0 needs 2 -> stuck.
  EXPECT_FALSE(csdf_is_deadlock_free(g));

  CsdfGraph ok;
  const CsdfActorId a2 = ok.add_actor("a", {1});
  const CsdfActorId b2 = ok.add_actor("b", {1, 1});
  ok.add_channel(a2, b2, {1}, {2, 1});
  ok.add_channel(b2, a2, {2, 1}, {1}, 3);
  EXPECT_TRUE(csdf_is_deadlock_free(ok));
}

TEST(CsdfThroughput, SinglePhaseRingMatchesHandComputation) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {2});
  const CsdfActorId b = g.add_actor("b", {3});
  g.add_channel(a, b, {1}, {1});
  g.add_channel(b, a, {1}, {1}, 1);
  const SelfTimedResult r = csdf_self_timed_throughput(g);
  ASSERT_FALSE(r.deadlocked());
  EXPECT_EQ(r.iteration_period, Rational(5));  // serialized ring
}

TEST(CsdfThroughput, PhaseDependentExecutionTimes) {
  // One actor, phases with exec (1, 4) and a self-feedback of 1 token: a
  // full cycle takes 1 + 4 = 5 time units for 2 firings.
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1, 4});
  g.add_channel(a, a, {1, 1}, {1, 1}, 1);
  const SelfTimedResult r = csdf_self_timed_throughput(g);
  ASSERT_FALSE(r.deadlocked());
  // Iteration = one phase cycle = 2 firings in 5 time units.
  EXPECT_EQ(r.iteration_period, Rational(5));
}

TEST(CsdfThroughput, DeadlockReported) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1});
  const CsdfActorId b = g.add_actor("b", {1});
  g.add_channel(a, b, {1}, {1});
  g.add_channel(b, a, {1}, {1});
  const SelfTimedResult r = csdf_self_timed_throughput(g);
  EXPECT_TRUE(r.deadlocked());
}

// Property: on single-phase graphs the CSDF engine equals the SDF engine run
// on the same graph with one-token self-loops (phase serialization).
class CsdfSdfAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdfSdfAgreement, SinglePhaseMatchesSerializedSdf) {
  Rng rng(GetParam());
  GeneratorOptions options;
  options.min_actors = 3;
  options.max_actors = 6;
  options.max_repetition = 3;
  const ApplicationGraph app = generate_application(options, rng, "agree");
  Graph g = app.sdf();
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    g.set_execution_time(ActorId{a}, app.max_execution_time(ActorId{a}));
  }

  // SDF engine with explicit serialization.
  Graph serialized = g;
  for (std::uint32_t a = 0; a < g.num_actors(); ++a) {
    if (!serialized.has_self_loop(ActorId{a})) {
      serialized.add_channel(ActorId{a}, ActorId{a}, 1, 1, 1);
    }
  }
  const SelfTimedResult sdf = self_timed_throughput(serialized);

  const SelfTimedResult csdf = csdf_self_timed_throughput(csdf_from_sdf(g));
  ASSERT_EQ(sdf.deadlocked(), csdf.deadlocked());
  if (!sdf.deadlocked()) {
    EXPECT_EQ(sdf.iteration_period, csdf.iteration_period) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfSdfAgreement, ::testing::Range<std::uint64_t>(1, 31));

/// Unit-step reference for the phase-serialized CSDF semantics: time advances
/// one unit per tick; at each instant, actor by actor and pass by pass until
/// nothing changes, a phase whose remaining time reached zero ends (producing
/// its rates and moving to the next phase) and an idle actor starts its
/// current phase when every input holds that phase's consumption. States
/// (tokens, phases, remaining times) are sampled at completions of the actor
/// with the fewest firings per iteration, and the first recurrent sample
/// closes the period.
class NaiveCsdf {
 public:
  explicit NaiveCsdf(const CsdfGraph& g)
      : g_(g), phase_(g.num_actors(), 0), remaining_(g.num_actors(), -1),
        fires_(g.num_actors(), 0) {
    for (const CsdfChannel& c : g.channels()) tokens_.push_back(c.initial_tokens);
  }

  /// The fields csdf_self_timed_throughput reports (it tracks no channel
  /// occupancy, so max_tokens stays empty); nullopt when `max_time` passes
  /// first.
  std::optional<SelfTimedResult> run(std::int64_t max_time) {
    const auto repetition = csdf_repetition_vector(g_);
    std::uint32_t ref = 0;
    for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
      if (repetition->firings[a] < repetition->firings[ref]) ref = a;
    }
    std::map<std::vector<std::int64_t>, std::pair<std::int64_t, std::vector<std::int64_t>>> seen;
    std::int64_t last_ref = -1;
    SelfTimedResult result;
    for (std::int64_t now = 0; now < max_time; ++now) {
      settle();
      if (fires_[ref] != last_ref) {
        last_ref = fires_[ref];
        std::vector<std::int64_t> key = tokens_;
        key.insert(key.end(), phase_.begin(), phase_.end());
        key.insert(key.end(), remaining_.begin(), remaining_.end());
        const auto [it, inserted] = seen.try_emplace(key, now, fires_);
        if (!inserted) {
          const auto& [prev_time, prev_fires] = it->second;
          for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
            const std::int64_t delta = fires_[a] - prev_fires[a];
            if (delta > 0) {
              result.status = SelfTimedResult::Status::kPeriodic;
              result.iteration_period =
                  Rational(now - prev_time) * Rational(repetition->firings[a], delta);
              result.cycle_start_time = prev_time;
              result.cycle_end_time = now;
              result.cycle_firings = delta;
              for (std::uint32_t b = 0; b < g_.num_actors(); ++b) {
                result.period_firings.push_back(fires_[b] - prev_fires[b]);
              }
              break;
            }
          }
          result.states_stored = seen.size();
          return result;
        }
      }
      bool active = false;
      for (std::int64_t& r : remaining_) {
        if (r > 0) {
          --r;
          active = true;
        }
      }
      if (!active) {
        result.states_stored = seen.size();
        return result;  // deadlock
      }
    }
    return std::nullopt;
  }

 private:
  void settle() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
        const CsdfActor& actor = g_.actor(CsdfActorId{a});
        const auto k = static_cast<std::size_t>(phase_[a]);
        if (remaining_[a] == 0) {
          for (const CsdfChannelId c : actor.outputs) {
            tokens_[c.value] += g_.channel(c).production[k];
          }
          phase_[a] = (phase_[a] + 1) % static_cast<std::int64_t>(actor.phases());
          remaining_[a] = -1;
          ++fires_[a];
          changed = true;
        }
        const auto next = static_cast<std::size_t>(phase_[a]);
        bool enabled = remaining_[a] < 0;
        for (const CsdfChannelId c : actor.inputs) {
          enabled = enabled && tokens_[c.value] >= g_.channel(c).consumption[next];
        }
        if (enabled) {
          for (const CsdfChannelId c : actor.inputs) {
            tokens_[c.value] -= g_.channel(c).consumption[next];
          }
          remaining_[a] = actor.phase_execution_times[next];
          changed = true;
        }
      }
    }
  }

  const CsdfGraph& g_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> phase_;
  std::vector<std::int64_t> remaining_;  // -1 = idle
  std::vector<std::int64_t> fires_;
};

/// Random consistent multi-phase graph: 2-5 actors with 1-3 phases each and
/// phase-dependent execution times (zero allowed, but every actor has a
/// non-zero phase, so no instant holds infinitely many firings), a chain
/// closed into a ring by a back channel, and optionally a cross channel and
/// a self-loop. Per-cycle rate totals follow random cycle counts q and are
/// split at random over the phases.
CsdfGraph random_csdf_graph(Rng& rng) {
  CsdfGraph g;
  const auto n = static_cast<std::size_t>(rng.uniform(2, 5));
  std::vector<std::int64_t> q(n);
  std::vector<std::size_t> phases(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = rng.uniform(1, 3);
    phases[i] = static_cast<std::size_t>(rng.uniform(1, 3));
    std::vector<std::int64_t> times(phases[i]);
    for (auto& t : times) t = rng.chance(0.2) ? 0 : rng.uniform(1, 5);
    times[rng.index(phases[i])] = rng.uniform(1, 5);
    g.add_actor("c" + std::to_string(i), times);
  }
  const auto split = [&](std::int64_t total, std::size_t parts) {
    std::vector<std::int64_t> v(parts, 0);
    for (std::int64_t k = 0; k < total; ++k) ++v[rng.index(parts)];
    return v;
  };
  const auto channel = [&](std::size_t s, std::size_t d, bool back) {
    const std::int64_t lcm = std::lcm(q[s], q[d]);
    const std::int64_t cons = lcm / q[d];
    g.add_channel(CsdfActorId{static_cast<std::uint32_t>(s)},
                  CsdfActorId{static_cast<std::uint32_t>(d)}, split(lcm / q[s], phases[s]),
                  split(cons, phases[d]), back ? cons * q[d] * rng.uniform(0, 2) : 0);
  };
  for (std::size_t i = 0; i + 1 < n; ++i) channel(i, i + 1, false);
  channel(n - 1, 0, true);
  if (rng.chance(0.3)) {
    const std::size_t s = rng.index(n);
    const std::size_t d = rng.index(n);
    channel(s, d, d <= s);
  }
  if (rng.chance(0.3)) {
    const std::size_t a = rng.index(n);
    g.add_channel(CsdfActorId{static_cast<std::uint32_t>(a)},
                  CsdfActorId{static_cast<std::uint32_t>(a)},
                  std::vector<std::int64_t>(phases[a], 1), std::vector<std::int64_t>(phases[a], 1),
                  1);
  }
  return g;
}

class CsdfReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdfReference, EngineMatchesUnitStepSimulator) {
  Rng rng(GetParam());
  const CsdfGraph g = random_csdf_graph(rng);
  const SelfTimedResult engine = csdf_self_timed_throughput(g);
  NaiveCsdf reference(g);
  const auto naive = reference.run(20000);
  ASSERT_TRUE(naive.has_value()) << "seed " << GetParam();
  EXPECT_EQ(engine.status, naive->status) << "seed " << GetParam();
  EXPECT_EQ(engine.iteration_period, naive->iteration_period) << "seed " << GetParam();
  EXPECT_EQ(engine.states_stored, naive->states_stored) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_start_time, naive->cycle_start_time) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_end_time, naive->cycle_end_time) << "seed " << GetParam();
  EXPECT_EQ(engine.cycle_firings, naive->cycle_firings) << "seed " << GetParam();
  EXPECT_EQ(engine.period_firings, naive->period_firings) << "seed " << GetParam();
  EXPECT_EQ(engine.max_tokens, naive->max_tokens) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfReference, ::testing::Range<std::uint64_t>(1, 81));

TEST(CsdfAbstraction, StructureAndRates) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1, 3});
  const CsdfActorId b = g.add_actor("b", {2});
  g.add_channel(a, b, {1, 2}, {3}, 5, "c");
  const Graph sdf = sdf_abstraction(g);
  ASSERT_EQ(sdf.num_actors(), 2u);
  EXPECT_EQ(sdf.actor(ActorId{0}).execution_time, 4);  // 1 + 3
  const Channel& c = sdf.channel(ChannelId{0});
  EXPECT_EQ(c.production_rate, 3);
  EXPECT_EQ(c.consumption_rate, 3);
  EXPECT_EQ(c.initial_tokens, 5);
}

TEST(CsdfAbstraction, RepetitionMatchesCycleCounts) {
  CsdfGraph g;
  const CsdfActorId a = g.add_actor("a", {1});
  const CsdfActorId b = g.add_actor("b", {1, 1});
  g.add_channel(a, b, {2}, {1, 2});
  g.add_channel(b, a, {1, 2}, {2}, 6);
  const auto csdf = csdf_repetition_vector(g);
  ASSERT_TRUE(csdf);
  const auto sdf = compute_repetition_vector(sdf_abstraction(g));
  ASSERT_TRUE(sdf);
  // The abstraction fires once per phase cycle: γ_sdf == q (cycle counts).
  EXPECT_EQ(*sdf, csdf->cycles);
}

class CsdfAbstractionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsdfAbstractionProperty, AbstractionIsConservative) {
  // Random 2-actor ring with random phase structure: the SDF abstraction's
  // period is never smaller than the exact CSDF period (when both are live).
  Rng rng(GetParam());
  CsdfGraph g;
  const auto phases_a = static_cast<std::size_t>(rng.uniform(1, 3));
  const auto phases_b = static_cast<std::size_t>(rng.uniform(1, 3));
  std::vector<std::int64_t> exec_a(phases_a), exec_b(phases_b);
  for (auto& t : exec_a) t = rng.uniform(1, 5);
  for (auto& t : exec_b) t = rng.uniform(1, 5);
  const CsdfActorId a = g.add_actor("a", exec_a);
  const CsdfActorId b = g.add_actor("b", exec_b);
  std::vector<std::int64_t> prod(phases_a), cons(phases_b), back_p(phases_b),
      back_c(phases_a);
  for (auto& r : prod) r = rng.uniform(0, 3);
  for (auto& r : cons) r = rng.uniform(0, 3);
  if (std::accumulate(prod.begin(), prod.end(), 0LL) == 0) prod[0] = 1;
  if (std::accumulate(cons.begin(), cons.end(), 0LL) == 0) cons[0] = 1;
  back_p = cons;  // mirror rates so the ring balances with q = (x, y)
  back_c = prod;
  const std::int64_t prod_total = std::accumulate(prod.begin(), prod.end(), 0LL);
  const std::int64_t cons_total = std::accumulate(cons.begin(), cons.end(), 0LL);
  g.add_channel(a, b, prod, cons, 0);
  g.add_channel(b, a, back_p, back_c, 2 * std::lcm(prod_total, cons_total));

  const SelfTimedResult exact = csdf_self_timed_throughput(g);
  Graph abstraction = sdf_abstraction(g);
  // The abstraction keeps phase serialization via self-loops.
  for (const ActorId id : abstraction.actor_ids()) {
    if (!abstraction.has_self_loop(id)) {
      abstraction.add_channel(id, id, 1, 1, 1);
    }
  }
  const SelfTimedResult coarse = self_timed_throughput(abstraction);
  if (exact.deadlocked() || coarse.deadlocked()) return;
  EXPECT_LE(exact.iteration_period, coarse.iteration_period) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfAbstractionProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(CsdfThroughput, TruePhaseBehaviourBeatsWorstCaseSdfAbstraction) {
  // The usual SDF abstraction of a CSDF actor uses the per-cycle totals with
  // the worst-case execution time; the CSDF analysis is at least as accurate.
  CsdfGraph fine;
  const CsdfActorId a = fine.add_actor("a", {1, 3});  // alternating cost
  const CsdfActorId b = fine.add_actor("b", {2});
  fine.add_channel(a, b, {1, 1}, {2}, 0);
  fine.add_channel(b, a, {2}, {1, 1}, 2);
  const SelfTimedResult exact = csdf_self_timed_throughput(fine);
  ASSERT_FALSE(exact.deadlocked());

  GraphBuilder sdf;
  sdf.actor("a", 3).actor("b", 2);  // worst-case phase time
  sdf.self_loop("a").self_loop("b");
  sdf.channel("a", "b", 1, 2);      // per-firing average rate
  sdf.channel("b", "a", 2, 1, 2);
  const SelfTimedResult coarse = self_timed_throughput(sdf.build());
  ASSERT_FALSE(coarse.deadlocked());
  // Per iteration both fire a twice, b once.
  EXPECT_LE(exact.iteration_period, coarse.iteration_period);
}

}  // namespace
}  // namespace sdfmap
