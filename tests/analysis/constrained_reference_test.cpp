// Differential validation of the constrained execution engine (Sec. 8.2):
// an independent, deliberately naive unit-time-step simulator implements the
// same semantics — actors progress only while their tile's wheel phase is
// inside the slice, one firing per tile, static-order starts, unscheduled
// actors self-timed — and both implementations must report identical
// iteration periods on randomized graphs, slices and wheels. The corner
// sweeps below go further: zero-duration firings, the start cap, token
// divergence, list scheduling and slice offsets, compared field for field
// and observer event for observer event.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <string>

#include "src/analysis/constrained.h"
#include "src/sdf/builder.h"
#include "src/sdf/deadlock.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

/// What the reference saw: the same fields execute_constrained reports, or
/// the failure it would raise, plus the observer stream and coverage counts.
struct ReferenceOutcome {
  enum class Kind { kPeriodic, kStalled, kDivergence, kZeroDelay };
  Kind kind = Kind::kStalled;
  ConstrainedResult result;  // status, period, cycle, states, occupancy, schedules
  std::string channel;       // kDivergence: the first channel over the limit
  std::vector<TransitionEvent> events;
  std::int64_t zero_duration_starts = 0;  // firings started with zero duration
  std::int64_t capped_starts = 0;         // start phases that hit the start cap
};

/// Reference simulator: advances global time one unit at a time and detects
/// the period by sampling full states at completions of the reference actor.
/// Within an instant it runs the engine's phase order pass by pass (end
/// unscheduled, end tiles, start unscheduled, start tiles) until nothing
/// changes, with no shortcut, so the observer stream, the start cap and the
/// channel named by a divergence error are comparable event for event.
class UnitStepSimulator {
 public:
  UnitStepSimulator(const Graph& g, const ConstrainedSpec& spec,
                    SchedulingMode mode = SchedulingMode::kStaticOrder,
                    const ExecutionLimits& limits = {})
      : g_(g), spec_(spec), mode_(mode), limits_(limits) {
    tokens_.resize(g.num_channels());
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      tokens_[c] = g.channels()[c].initial_tokens;
    }
    max_tokens_ = tokens_;
    tiles_.resize(spec.tiles.size());
    unscheduled_.resize(g.num_actors());
    fires_.assign(g.num_actors(), 0);
    pending_.assign(g.num_actors(), 0);
    recorded_.resize(spec.tiles.size());
  }

  /// Runs until the first recurrent sample, a failure, or `max_time`.
  ReferenceOutcome run(const RepetitionVector& gamma, std::int64_t max_time) {
    std::uint32_t ref = 0;
    for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
      if (gamma[a] > 0 && gamma[a] < gamma[ref]) ref = a;
    }
    struct Sample {
      std::int64_t time;
      std::vector<std::int64_t> fires;
      std::vector<std::size_t> starts;
    };
    std::map<std::vector<std::int64_t>, Sample> seen;
    std::int64_t last_ref = -1;
    for (std::int64_t now = 0; now < max_time; ++now) {
      TransitionEvent event;
      event.time = now;
      if (!settle(event)) return std::move(out_);
      if (now == 0 || !event.ended.empty() || !event.started.empty()) {
        out_.events.push_back(event);
      }
      if (fires_[ref] != last_ref) {
        last_ref = fires_[ref];
        std::vector<std::size_t> starts;
        for (const auto& r : recorded_) starts.push_back(r.size());
        const auto [it, inserted] = seen.try_emplace(encode(now), Sample{now, fires_, starts});
        if (!inserted) {
          const Sample& prev = it->second;
          SelfTimedResult& base = out_.result.base;
          for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
            const std::int64_t delta = fires_[a] - prev.fires[a];
            if (delta > 0 && gamma[a] > 0) {
              base.status = SelfTimedResult::Status::kPeriodic;
              base.iteration_period = Rational(now - prev.time) * Rational(gamma[a], delta);
              base.cycle_firings = delta;
              break;
            }
          }
          base.cycle_start_time = prev.time;
          base.cycle_end_time = now;
          for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
            base.period_firings.push_back(fires_[a] - prev.fires[a]);
          }
          if (mode_ == SchedulingMode::kListScheduling) {
            for (std::size_t t = 0; t < recorded_.size(); ++t) {
              StaticOrderSchedule schedule;
              schedule.firings = recorded_[t];
              schedule.loop_start = prev.starts[t];
              out_.result.schedules.push_back(std::move(schedule));
            }
          }
          out_.kind = ReferenceOutcome::Kind::kPeriodic;
          base.states_stored = seen.size();
          base.max_tokens = max_tokens_;
          return std::move(out_);
        }
      }
      tick(now);
    }
    out_.result.base.states_stored = seen.size();
    out_.result.base.max_tokens = max_tokens_;
    return std::move(out_);
  }

 private:
  struct TileState {
    bool busy = false;
    std::uint32_t actor = 0;
    std::int64_t remaining = 0;
    std::size_t pos = 0;
    std::deque<std::uint32_t> ready;  // list mode
  };

  bool in_slice(std::size_t t, std::int64_t now) const {
    const TdmaTileSpec& tile = spec_.tiles[t];
    const std::int64_t phase =
        ((now - tile.slice_offset) % tile.wheel_size + tile.wheel_size) % tile.wheel_size;
    return phase < tile.slice;
  }

  bool can_fire(std::uint32_t a) const {
    for (const ChannelId c : g_.actor(ActorId{a}).inputs) {
      if (tokens_[c.value] < g_.channel(c).consumption_rate) return false;
    }
    return true;
  }

  void fire_consume(std::uint32_t a) {
    for (const ChannelId c : g_.actor(ActorId{a}).inputs) {
      tokens_[c.value] -= g_.channel(c).consumption_rate;
    }
  }

  /// Produces one firing's outputs; false (with the channel recorded) when a
  /// channel exceeds max_tokens_per_channel.
  bool fire_produce(std::uint32_t a) {
    for (const ChannelId c : g_.actor(ActorId{a}).outputs) {
      tokens_[c.value] += g_.channel(c).production_rate;
      max_tokens_[c.value] = std::max(max_tokens_[c.value], tokens_[c.value]);
      if (tokens_[c.value] > limits_.max_tokens_per_channel) {
        out_.kind = ReferenceOutcome::Kind::kDivergence;
        out_.channel = g_.channel(c).name;
        return false;
      }
    }
    ++fires_[a];
    return true;
  }

  void start_on_tile(std::size_t t, std::uint32_t a, TransitionEvent& event) {
    fire_consume(a);
    tiles_[t].busy = true;
    tiles_[t].actor = a;
    tiles_[t].remaining = g_.actor(ActorId{a}).execution_time;
    if (tiles_[t].remaining == 0) ++out_.zero_duration_starts;
    event.started.push_back(ActorId{a});
  }

  /// End zero-remaining firings and start every possible firing at the
  /// current instant; false on a divergence or zero-delay failure.
  bool settle(TransitionEvent& event) {
    const std::int64_t cap = limits_.max_tokens_per_channel;
    std::size_t events = 0;
    bool changed = true;
    while (changed) {
      const std::size_t before = event.ended.size() + event.started.size();
      for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
        if (spec_.actor_tile[a] != kUnscheduled) continue;
        auto& list = unscheduled_[a];
        while (!list.empty() && list.front() == 0) {
          list.pop_front();
          if (!fire_produce(a)) return false;
          event.ended.push_back(ActorId{a});
        }
      }
      for (TileState& ts : tiles_) {
        if (ts.busy && ts.remaining == 0) {
          ts.busy = false;
          if (!fire_produce(ts.actor)) return false;
          event.ended.push_back(ActorId{ts.actor});
        }
      }
      for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
        if (spec_.actor_tile[a] != kUnscheduled) continue;
        std::int64_t started = 0;
        while (started < cap && can_fire(a)) {
          fire_consume(a);
          unscheduled_[a].push_back(g_.actor(ActorId{a}).execution_time);
          event.started.push_back(ActorId{a});
          ++started;
        }
        if (started == cap) ++out_.capped_starts;
        if (g_.actor(ActorId{a}).execution_time == 0) out_.zero_duration_starts += started;
        std::sort(unscheduled_[a].begin(), unscheduled_[a].end());
      }
      if (mode_ == SchedulingMode::kListScheduling) {
        // FCFS ready lists: enqueue each newly enabled instance of a tile
        // actor; a queued instance claims its tokens until it starts.
        for (std::uint32_t a = 0; a < g_.num_actors(); ++a) {
          const std::int32_t t = spec_.actor_tile[a];
          if (t == kUnscheduled) continue;
          std::int64_t enabled = cap;
          for (const ChannelId c : g_.actor(ActorId{a}).inputs) {
            enabled = std::min(enabled, tokens_[c.value] / g_.channel(c).consumption_rate);
          }
          if (enabled == cap) ++out_.capped_starts;
          for (; pending_[a] < enabled; ++pending_[a]) {
            tiles_[static_cast<std::size_t>(t)].ready.push_back(a);
          }
        }
      }
      for (std::size_t t = 0; t < tiles_.size(); ++t) {
        TileState& ts = tiles_[t];
        if (ts.busy) continue;
        if (mode_ == SchedulingMode::kListScheduling) {
          if (ts.ready.empty()) continue;
          const std::uint32_t next = ts.ready.front();
          ts.ready.pop_front();
          --pending_[next];
          recorded_[t].push_back(ActorId{next});
          start_on_tile(t, next, event);
          continue;
        }
        const StaticOrderSchedule& sched = spec_.tiles[t].schedule;
        if (ts.pos >= sched.size()) continue;
        const std::uint32_t next = sched.at(ts.pos).value;
        if (!can_fire(next)) continue;
        ts.pos = sched.next(ts.pos);
        start_on_tile(t, next, event);
      }
      const std::size_t after = event.ended.size() + event.started.size();
      changed = after != before;
      events += after - before;
      if (events > limits_.max_events_per_instant) {
        out_.kind = ReferenceOutcome::Kind::kZeroDelay;
        return false;
      }
    }
    return true;
  }

  /// Advance one time unit: gated progress on tiles, free progress elsewhere.
  void tick(std::int64_t now) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (tiles_[t].busy && in_slice(t, now)) --tiles_[t].remaining;
    }
    for (auto& list : unscheduled_) {
      for (auto& r : list) --r;
    }
  }

  std::vector<std::int64_t> encode(std::int64_t now) const {
    std::vector<std::int64_t> key = tokens_;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      key.push_back(tiles_[t].busy ? tiles_[t].actor : -1);
      key.push_back(tiles_[t].busy ? tiles_[t].remaining : -1);
      key.push_back(static_cast<std::int64_t>(tiles_[t].pos));
      key.push_back(now % spec_.tiles[t].wheel_size);
      key.push_back(static_cast<std::int64_t>(tiles_[t].ready.size()));
      key.insert(key.end(), tiles_[t].ready.begin(), tiles_[t].ready.end());
    }
    for (const auto& list : unscheduled_) {
      key.push_back(static_cast<std::int64_t>(list.size()));
      key.insert(key.end(), list.begin(), list.end());
    }
    return key;
  }

  const Graph& g_;
  const ConstrainedSpec& spec_;
  const SchedulingMode mode_;
  const ExecutionLimits limits_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<TileState> tiles_;
  std::vector<std::deque<std::int64_t>> unscheduled_;
  std::vector<std::int64_t> fires_;
  std::vector<std::int64_t> pending_;            // list mode, per actor
  std::vector<std::vector<ActorId>> recorded_;  // list mode, per tile
  ReferenceOutcome out_;
};

/// Random small fixture: 2-4 actors on 1-2 tiles plus optionally one
/// unscheduled actor, ring topology, random slices.
struct RandomFixture {
  Graph g;
  ConstrainedSpec spec;
  RepetitionVector gamma;
  bool valid = false;

  explicit RandomFixture(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform(2, 4));
    const std::size_t num_tiles = static_cast<std::size_t>(rng.uniform(1, 2));
    for (std::size_t i = 0; i < n; ++i) {
      g.add_actor("a" + std::to_string(i), rng.uniform(0, 6));
    }
    for (std::size_t i = 0; i < n; ++i) {
      g.add_channel(ActorId{static_cast<std::uint32_t>(i)},
                    ActorId{static_cast<std::uint32_t>((i + 1) % n)}, 1, 1,
                    i + 1 == n ? rng.uniform(1, 3) : rng.uniform(0, 1));
    }
    // Assign actors to tiles (or unscheduled with small probability).
    spec.actor_tile.resize(n);
    std::vector<std::vector<ActorId>> on_tile(num_tiles);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.2)) {
        spec.actor_tile[i] = kUnscheduled;
      } else {
        const auto t = static_cast<std::int32_t>(rng.index(num_tiles));
        spec.actor_tile[i] = t;
        on_tile[static_cast<std::size_t>(t)].push_back(ActorId{static_cast<std::uint32_t>(i)});
      }
    }
    for (std::size_t t = 0; t < num_tiles; ++t) {
      TdmaTileSpec tile;
      tile.wheel_size = rng.uniform(3, 8);
      tile.slice = rng.uniform(1, tile.wheel_size);
      // Random static order: the actors of the tile in a shuffled cycle.
      rng.shuffle(on_tile[t]);
      tile.schedule.firings = on_tile[t];
      tile.schedule.loop_start = 0;
      spec.tiles.push_back(std::move(tile));
    }
    const auto rv = compute_repetition_vector(g);
    if (!rv) return;
    gamma = *rv;
    // Zero-exec rings can fire infinitely in one instant; skip those.
    bool all_zero = true;
    for (const Actor& a : g.actors()) all_zero &= a.execution_time == 0;
    if (all_zero) return;
    valid = true;
  }
};

class ConstrainedReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstrainedReference, EventEngineMatchesUnitStepSimulator) {
  RandomFixture fx(GetParam());
  if (!fx.valid) return;

  std::optional<Rational> engine_period;
  try {
    const ConstrainedResult r = execute_constrained(fx.g, fx.gamma, fx.spec,
                                                    SchedulingMode::kStaticOrder);
    if (!r.base.deadlocked()) engine_period = r.base.iteration_period;
  } catch (const ThroughputError&) {
    return;  // zero-delay cascade; the reference would spin too
  }

  UnitStepSimulator reference(fx.g, fx.spec);
  const ReferenceOutcome outcome = reference.run(fx.gamma, 20000);
  std::optional<Rational> reference_period;
  if (outcome.kind == ReferenceOutcome::Kind::kPeriodic) {
    reference_period = outcome.result.base.iteration_period;
  }

  if (engine_period) {
    ASSERT_TRUE(reference_period) << "engine found period " << engine_period->to_string()
                                  << " but reference saw none (seed " << GetParam() << ")";
    EXPECT_EQ(*engine_period, *reference_period) << "seed " << GetParam();
  } else {
    EXPECT_FALSE(reference_period) << "reference found period "
                                   << reference_period->to_string()
                                   << " but engine deadlocked (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstrainedReference,
                         ::testing::Range<std::uint64_t>(1, 121));

// ---- Corners the allocation benchmarks never reach ------------------------
//
// Each comparison runs the engine with an observer and checks every field of
// its result (or the failure it raises) and its whole observer stream against
// the unit-step reference.

/// Random multi-rate fixture: 3-7 actors on 1-3 tiles (slice offsets
/// included) with several unscheduled actors, extra channels and self-loops.
/// The repetition vector is drawn first, so every fixture is consistent.
struct CornerFixture {
  Graph g;
  ConstrainedSpec spec;
  RepetitionVector gamma;

  CornerFixture(std::uint64_t seed, double zero_time, double unscheduled) {
    Rng rng(seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform(3, 7));
    std::vector<std::int64_t> reps(n);
    for (auto& r : reps) r = rng.uniform(1, 3);
    for (std::size_t i = 0; i < n; ++i) {
      g.add_actor("a" + std::to_string(i), rng.chance(zero_time) ? 0 : rng.uniform(1, 6));
    }
    const auto connect = [&](std::size_t a, std::size_t b, std::int64_t tokens) {
      const std::int64_t d = std::gcd(reps[a], reps[b]);
      g.add_channel(ActorId{static_cast<std::uint32_t>(a)}, ActorId{static_cast<std::uint32_t>(b)},
                    reps[b] / d, reps[a] / d, tokens, "c" + std::to_string(g.num_channels()));
    };
    for (std::size_t i = 0; i < n; ++i) {
      connect(i, (i + 1) % n, i + 1 == n ? rng.uniform(3, 12) : rng.uniform(0, 2));
    }
    for (std::int64_t e = rng.uniform(0, 2); e > 0; --e) {
      connect(rng.index(n), rng.index(n), rng.uniform(0, 8));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.3)) connect(i, i, rng.uniform(1, 2));
    }
    gamma = *compute_repetition_vector(g);
    const std::size_t num_tiles = static_cast<std::size_t>(rng.uniform(1, 3));
    std::vector<std::vector<ActorId>> on_tile(num_tiles);
    for (std::uint32_t a = 0; a < n; ++a) {
      if (rng.chance(unscheduled)) {
        spec.actor_tile.push_back(kUnscheduled);
        continue;
      }
      const std::size_t t = rng.index(num_tiles);
      spec.actor_tile.push_back(static_cast<std::int32_t>(t));
      on_tile[t].insert(on_tile[t].end(), static_cast<std::size_t>(gamma[a]), ActorId{a});
    }
    for (std::size_t t = 0; t < num_tiles; ++t) {
      TdmaTileSpec tile;
      tile.wheel_size = rng.uniform(1, 9);
      tile.slice = rng.uniform(1, tile.wheel_size);
      tile.slice_offset = rng.uniform(0, 9);
      rng.shuffle(on_tile[t]);
      tile.schedule.firings = on_tile[t];
      spec.tiles.push_back(std::move(tile));
    }
  }
};

std::string render(const TransitionEvent& e) {
  std::string out = std::to_string(e.time) + ": -";
  for (const ActorId a : e.ended) out += " " + std::to_string(a.value);
  out += " +";
  for (const ActorId a : e.started) out += " " + std::to_string(a.value);
  return out;
}

/// Empty when both streams are equal, else the first event that differs.
std::string first_difference(const std::vector<TransitionEvent>& engine,
                             const std::vector<TransitionEvent>& reference) {
  for (std::size_t i = 0; i < std::max(engine.size(), reference.size()); ++i) {
    const std::string e = i < engine.size() ? render(engine[i]) : "(none)";
    const std::string r = i < reference.size() ? render(reference[i]) : "(none)";
    if (e != r) return "event " + std::to_string(i) + ": engine " + e + ", reference " + r;
  }
  return "";
}

/// What one sweep reached, so each test can show it exercised its corner.
struct Coverage {
  int periodic = 0;
  int deadlocked = 0;
  int diverged = 0;
  int zero_delay = 0;
  std::int64_t zero_duration_starts = 0;
  std::int64_t capped_starts = 0;
  std::size_t events = 0;
  int beyond_horizon = 0;
};

constexpr std::int64_t kReferenceHorizon = 20000;

void expect_matches_reference(const Graph& g, const RepetitionVector& gamma,
                              const ConstrainedSpec& spec, SchedulingMode mode,
                              const ExecutionLimits& limits, Coverage& coverage,
                              const std::string& what) {
  std::vector<TransitionEvent> events;
  const TraceObserver observer = [&](const TransitionEvent& e) { events.push_back(e); };
  std::optional<ConstrainedResult> engine;
  std::string failure;
  AnalysisErrorKind kind = AnalysisErrorKind::kUnknown;
  try {
    engine = execute_constrained(g, gamma, spec, mode, limits, observer);
  } catch (const AnalysisError& e) {
    kind = e.kind();
    failure = e.what();
  }
  UnitStepSimulator simulator(g, spec, mode, limits);
  const ReferenceOutcome reference = simulator.run(gamma, kReferenceHorizon);
  coverage.zero_duration_starts += reference.zero_duration_starts;
  coverage.capped_starts += reference.capped_starts;
  coverage.events += reference.events.size();
  if (engine && !engine->base.deadlocked() && engine->base.cycle_end_time >= kReferenceHorizon) {
    // The period closes past the reference's horizon: only the prefix of the
    // stream is comparable.
    ++coverage.beyond_horizon;
    std::erase_if(events, [](const TransitionEvent& e) { return e.time >= kReferenceHorizon; });
    EXPECT_EQ(first_difference(events, reference.events), "") << what;
    return;
  }
  EXPECT_EQ(first_difference(events, reference.events), "") << what;

  using Kind = ReferenceOutcome::Kind;
  if (!engine) {
    if (kind == AnalysisErrorKind::kTokenDivergence) {
      ++coverage.diverged;
      ASSERT_EQ(reference.kind, Kind::kDivergence) << what << ": " << failure;
      EXPECT_EQ(failure, "execute_constrained: unbounded token accumulation on '" +
                             reference.channel + "'")
          << what;
    } else {
      ++coverage.zero_delay;
      ASSERT_EQ(kind, AnalysisErrorKind::kZeroDelayCycle) << what << ": " << failure;
      EXPECT_EQ(reference.kind, Kind::kZeroDelay) << what;
    }
    return;
  }
  const SelfTimedResult& r = engine->base;
  const SelfTimedResult& ref = reference.result.base;
  if (r.deadlocked()) {
    ++coverage.deadlocked;
    EXPECT_EQ(reference.kind, Kind::kStalled) << what;
  } else {
    ++coverage.periodic;
    ASSERT_EQ(reference.kind, Kind::kPeriodic) << what;
    EXPECT_EQ(r.iteration_period, ref.iteration_period) << what;
    EXPECT_EQ(r.cycle_start_time, ref.cycle_start_time) << what;
    EXPECT_EQ(r.cycle_end_time, ref.cycle_end_time) << what;
    EXPECT_EQ(r.cycle_firings, ref.cycle_firings) << what;
    EXPECT_EQ(r.period_firings, ref.period_firings) << what;
    ASSERT_EQ(engine->schedules.size(), reference.result.schedules.size()) << what;
    for (std::size_t t = 0; t < engine->schedules.size(); ++t) {
      EXPECT_EQ(engine->schedules[t].firings, reference.result.schedules[t].firings) << what;
      EXPECT_EQ(engine->schedules[t].loop_start, reference.result.schedules[t].loop_start)
          << what;
    }
  }
  EXPECT_EQ(r.states_stored, ref.states_stored) << what;
  EXPECT_EQ(r.max_tokens, ref.max_tokens) << what;
}

Coverage sweep(SchedulingMode mode, double zero_time, double unscheduled,
               const ExecutionLimits& limits, std::uint64_t seeds) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const CornerFixture fx(seed, zero_time, unscheduled);
    expect_matches_reference(fx.g, fx.gamma, fx.spec, mode, limits, coverage,
                             "seed " + std::to_string(seed));
  }
  return coverage;
}

TEST(ConstrainedReferenceCorners, ZeroDurationFiringsCascadeWithinAnInstant) {
  // Zero-execution-time tile and interconnect actors start firings that end
  // at the same instant, so an instant needs more than one pass.
  ExecutionLimits limits;
  limits.max_events_per_instant = 500;
  const Coverage c = sweep(SchedulingMode::kStaticOrder, 0.5, 0.4, limits, 150);
  EXPECT_GT(c.zero_duration_starts, 1000);
  EXPECT_GT(c.periodic, 20);
  EXPECT_GT(c.zero_delay, 0);
}

TEST(ConstrainedReferenceCorners, StartCapSplitsStartsAcrossPasses) {
  // A cap below the enabled count starts the rest in further passes at the
  // same instant; the same cap bounds every channel's occupancy.
  Coverage c;
  for (const std::int64_t cap : {3, 6, 12}) {
    ExecutionLimits limits;
    limits.max_tokens_per_channel = cap;
    const Coverage one = sweep(SchedulingMode::kStaticOrder, 0.2, 0.5, limits, 100);
    c.capped_starts += one.capped_starts;
    c.periodic += one.periodic;
    c.diverged += one.diverged;
  }
  EXPECT_GT(c.capped_starts, 50);
  EXPECT_GT(c.periodic, 20);
  EXPECT_GT(c.diverged, 20);

  // Hand-made: four tokens wait for an unscheduled zero-time actor, cap 3.
  Graph g;
  const ActorId u = g.add_actor("u", 0);
  const ActorId a = g.add_actor("a", 2);
  g.add_channel(a, u, 1, 1, 4, "in");
  g.add_channel(u, a, 1, 1, 0, "out");
  ConstrainedSpec spec;
  spec.actor_tile = {kUnscheduled, 0};
  StaticOrderSchedule schedule;
  schedule.firings = {a};
  spec.tiles.push_back({4, 3, 0, schedule});
  ExecutionLimits limits;
  limits.max_tokens_per_channel = 3;
  Coverage hand;
  expect_matches_reference(g, *compute_repetition_vector(g), spec,
                           SchedulingMode::kStaticOrder, limits, hand, "hand-made");
  EXPECT_GT(hand.capped_starts, 0);
  EXPECT_EQ(hand.periodic, 1);
}

TEST(ConstrainedReferenceCorners, TokenDivergenceNamesTheSameChannel) {
  // Two firings of `src` end together. Firing by firing, "wide" passes the
  // limit on the first firing while "narrow" only would on the second, so
  // the error must name "wide" even though "narrow" comes first.
  Graph g;
  const ActorId src = g.add_actor("src", 1);
  const ActorId x = g.add_actor("x", 1000);
  const ActorId y = g.add_actor("y", 1000);
  g.add_channel(src, src, 1, 1, 2, "self");
  g.add_channel(src, x, 1, 1, 100, "narrow");
  g.add_channel(src, y, 3, 3, 98, "wide");
  ConstrainedSpec spec;
  spec.actor_tile = {kUnscheduled, 0, 0};
  StaticOrderSchedule schedule;
  schedule.firings = {x, y};
  spec.tiles.push_back({10, 10, 0, schedule});
  ExecutionLimits limits;
  limits.max_tokens_per_channel = 100;
  const RepetitionVector gamma = *compute_repetition_vector(g);
  try {
    (void)execute_constrained(g, gamma, spec, SchedulingMode::kStaticOrder, limits);
    FAIL() << "expected a token-divergence error";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.kind(), AnalysisErrorKind::kTokenDivergence);
    EXPECT_STREQ(e.what(), "execute_constrained: unbounded token accumulation on 'wide'");
  }
  Coverage hand;
  expect_matches_reference(g, gamma, spec, SchedulingMode::kStaticOrder, limits, hand,
                           "hand-made");
  EXPECT_EQ(hand.diverged, 1);
}

TEST(ConstrainedReferenceCorners, ListSchedulingRecordsTheSameSchedules) {
  Coverage total;
  for (const double zero_time : {0.0, 0.4}) {
    const Coverage one =
        sweep(SchedulingMode::kListScheduling, zero_time, 0.3, ExecutionLimits{}, 120);
    total.periodic += one.periodic;
    total.zero_duration_starts += one.zero_duration_starts;
  }
  EXPECT_GT(total.periodic, 100);
  EXPECT_GT(total.zero_duration_starts, 100);

  ExecutionLimits capped;
  capped.max_tokens_per_channel = 4;
  const Coverage cap = sweep(SchedulingMode::kListScheduling, 0.2, 0.3, capped, 120);
  EXPECT_GT(cap.capped_starts, 20);

  // Hand-made: six tokens wait for `a`, but the cap of 4 lets the ready list
  // claim only four. Once `a` starts, a second pass at the same instant
  // queues a fifth claim — ahead of `c`, which `a`'s completion enables at
  // the next instant and which the refresh visits first.
  Graph g;
  const ActorId c = g.add_actor("c", 1);
  const ActorId a = g.add_actor("a", 1);
  g.add_channel(c, a, 1, 1, 6, "ca");
  g.add_channel(a, c, 1, 1, 0, "ac");
  ConstrainedSpec spec;
  spec.actor_tile = {0, 0};
  spec.tiles.push_back({1, 1, 0, {}});
  Coverage hand;
  expect_matches_reference(g, *compute_repetition_vector(g), spec,
                           SchedulingMode::kListScheduling, capped, hand, "hand-made");
  EXPECT_GT(hand.capped_starts, 0);
}

TEST(ConstrainedReferenceCorners, ObserverStreamMatchesEventForEvent) {
  // Every comparison checks the stream; this one also pins that tracing does
  // not change the result.
  const Coverage c = sweep(SchedulingMode::kStaticOrder, 0.3, 0.4, ExecutionLimits{}, 120);
  EXPECT_GT(c.events, 2000u);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CornerFixture fx(seed, 0.3, 0.4);
    const TraceObserver ignore = [](const TransitionEvent&) {};
    const ConstrainedResult quiet =
        execute_constrained(fx.g, fx.gamma, fx.spec, SchedulingMode::kStaticOrder);
    const ConstrainedResult traced = execute_constrained(
        fx.g, fx.gamma, fx.spec, SchedulingMode::kStaticOrder, ExecutionLimits{}, ignore);
    EXPECT_EQ(quiet.base.iteration_period, traced.base.iteration_period) << seed;
    EXPECT_EQ(quiet.base.states_stored, traced.base.states_stored) << seed;
    EXPECT_EQ(quiet.base.max_tokens, traced.base.max_tokens) << seed;
  }
}

}  // namespace
}  // namespace sdfmap
