// Every limit error of every state-space engine, pinned in one table: the
// self-timed engine, the constrained engine in static-order and list mode,
// and the CSDF engine each stop on the state limit, the step limit, token
// divergence, a zero-delay cycle, an expired deadline and cancellation, with
// an exact AnalysisError kind and what() string.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/analysis/constrained.h"
#include "src/analysis/error.h"
#include "src/analysis/state_space.h"
#include "src/csdf/analysis.h"
#include "src/csdf/graph.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {
namespace {

enum class Engine { kSelfTimed, kStaticOrder, kListScheduling, kCsdf };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSelfTimed: return "self_timed_throughput";
    case Engine::kStaticOrder:
    case Engine::kListScheduling: return "execute_constrained";
    case Engine::kCsdf: return "csdf_self_timed_throughput";
  }
  return "";
}

/// A graph plus its constrained binding: actors listed in `on_tile` run on
/// one always-in-slice tile in that static order, the rest are unscheduled.
/// The CSDF engine runs the graph's single-phase equivalent.
struct Fixture {
  Graph g;
  std::vector<std::string> on_tile;
};

void run(Engine engine, const Fixture& fx, const ExecutionLimits& limits) {
  if (engine == Engine::kCsdf) {
    (void)csdf_self_timed_throughput(csdf_from_sdf(fx.g), limits);
    return;
  }
  const RepetitionVector gamma = *compute_repetition_vector(fx.g);
  if (engine == Engine::kSelfTimed) {
    (void)self_timed_throughput(fx.g, gamma, limits);
    return;
  }
  ConstrainedSpec spec;
  spec.actor_tile.assign(fx.g.num_actors(), kUnscheduled);
  TdmaTileSpec tile;
  for (const std::string& name : fx.on_tile) {
    const ActorId a = *fx.g.find_actor(name);
    spec.actor_tile[a.value] = 0;
    tile.schedule.firings.push_back(a);
  }
  spec.tiles.push_back(tile);
  const SchedulingMode mode = engine == Engine::kStaticOrder ? SchedulingMode::kStaticOrder
                                                             : SchedulingMode::kListScheduling;
  (void)execute_constrained(fx.g, gamma, spec, mode, limits);
}

/// A two-actor ring where the reference actor `a` (exec 3) completes at
/// fewer instants than `b` (exec 1), so some instants are not sampled.
Fixture slow_ring() {
  GraphBuilder b;
  b.actor("a", 3).actor("b", 1);
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1, 1);
  return {b.build(), {"a", "b"}};
}

/// A serialized source feeding a slower serialized sink through channel 'c':
/// tokens pile up one firing at a time.
Fixture divergent_source() {
  GraphBuilder b;
  b.actor("src", 1).actor("snk", 2);
  b.self_loop("src").self_loop("snk");
  b.channel("src", "snk", 1, 1, 0, "c");
  return {b.build(), {"snk"}};
}

/// A ring of zero-time actors: one instant holds unboundedly many firings.
Fixture zero_delay_ring() {
  GraphBuilder b;
  b.actor("a", 0).actor("b", 0);
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1, 1);
  return {b.build(), {"a", "b"}};
}

/// A ring of two unscheduled actors whose transient runs long enough to poll
/// the budget more than 64 times (only every 64th poll reads the clock and
/// the flag).
Fixture long_transient() {
  GraphBuilder b;
  b.actor("a", 3).actor("b", 7);
  b.self_loop("a").self_loop("b");
  b.channel("a", "b", 1, 1).channel("b", "a", 1, 1, 40);
  return {b.build(), {}};
}

struct LimitCase {
  std::string limit;
  Fixture (*fixture)();
  void (*tighten)(ExecutionLimits&);
  AnalysisErrorKind kind;
  std::string (*message)(Engine);
};

std::string prefixed(Engine e, const std::string& tail) {
  return std::string(engine_name(e)) + ": " + tail;
}

const LimitCase kCases[] = {
    {"state limit", slow_ring, [](ExecutionLimits& l) { l.max_states = 0; },
     AnalysisErrorKind::kStateLimit,
     [](Engine e) { return prefixed(e, "state limit exceeded"); }},
    {"step limit", slow_ring, [](ExecutionLimits& l) { l.max_time_steps = 0; },
     AnalysisErrorKind::kStepLimit,
     [](Engine e) { return prefixed(e, "step limit exceeded (livelock?)"); }},
    {"token divergence", divergent_source,
     [](ExecutionLimits& l) { l.max_tokens_per_channel = 10; },
     AnalysisErrorKind::kTokenDivergence,
     [](Engine e) {
       switch (e) {
         case Engine::kSelfTimed:
           return prefixed(e, "unbounded token accumulation on channel 'c'");
         case Engine::kCsdf: return prefixed(e, "unbounded tokens on 'c'");
         default: return prefixed(e, "unbounded token accumulation on 'c'");
       }
     }},
    {"zero-delay cycle", zero_delay_ring,
     [](ExecutionLimits& l) { l.max_events_per_instant = 100; },
     AnalysisErrorKind::kZeroDelayCycle,
     [](Engine e) {
       switch (e) {
         case Engine::kSelfTimed:
           return prefixed(e, "zero-delay cycle (infinitely many events in one instant)");
         case Engine::kCsdf: return prefixed(e, "zero-delay phase cycle");
         default: return prefixed(e, "zero-delay cycle at one instant");
       }
     }},
    {"expired deadline", long_transient,
     [](ExecutionLimits& l) {
       l.budget.set_deadline(AnalysisBudget::Clock::now() - std::chrono::seconds(1));
     },
     AnalysisErrorKind::kDeadlineExceeded,
     [](Engine e) { return prefixed(e, "analysis deadline exceeded"); }},
    {"cancellation", long_transient,
     [](ExecutionLimits& l) {
       const CancellationToken token = CancellationToken::make();
       token.request_cancel();
       l.budget.set_cancellation(token);
     },
     AnalysisErrorKind::kCancelled, [](Engine e) { return prefixed(e, "analysis cancelled"); }},
};

TEST(EngineLimits, EveryEngineReportsEveryLimitExactly) {
  for (const Engine engine : {Engine::kSelfTimed, Engine::kStaticOrder,
                              Engine::kListScheduling, Engine::kCsdf}) {
    for (const LimitCase& c : kCases) {
      SCOPED_TRACE(std::string(engine_name(engine)) + " / " + c.limit +
                   (engine == Engine::kListScheduling ? " (list)" : ""));
      const Fixture fx = c.fixture();
      ExecutionLimits limits;
      c.tighten(limits);
      try {
        run(engine, fx, limits);
        ADD_FAILURE() << "expected an AnalysisError";
      } catch (const AnalysisError& e) {
        EXPECT_EQ(e.kind(), c.kind);
        EXPECT_EQ(std::string(e.what()), c.message(engine));
      }
    }
  }
}

TEST(EngineLimits, FixturesRunToAResultWithoutTheirLimit) {
  for (const Engine engine : {Engine::kSelfTimed, Engine::kStaticOrder,
                              Engine::kListScheduling, Engine::kCsdf}) {
    SCOPED_TRACE(engine_name(engine));
    EXPECT_NO_THROW(run(engine, slow_ring(), {}));
    EXPECT_NO_THROW(run(engine, long_transient(), {}));
  }
}

}  // namespace
}  // namespace sdfmap
