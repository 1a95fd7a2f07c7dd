// SliceCheck builds the binding-aware graph once per slice search and only
// re-times its sync actors for each slice vector ω (set_slices). These tests
// pin that the patched graph and the cache key a check uses are word for word
// those of a fresh build, and that a sequence of checks answers, throws and
// counts exactly as rebuilding the graph for every check does.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/analysis/conservative.h"
#include "src/analysis/error.h"
#include "src/gen/benchmark_sets.h"
#include "src/gen/generator.h"
#include "src/mapping/binding_aware.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/slice_allocator.h"
#include "src/platform/mesh.h"
#include "src/sdf/builder.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/rng.h"

namespace sdfmap {
namespace {

/// One generated application on a benchmark platform with a random complete
/// binding and the list scheduler's orders for it.
struct Sample {
  ApplicationGraph app;
  Architecture arch;
  Binding binding;
  std::vector<StaticOrderSchedule> schedules;
};

std::optional<Sample> make_sample(std::uint64_t seed) {
  Rng rng(seed);
  GeneratorOptions gen = options_for_set(static_cast<BenchmarkSet>(1 + seed % 4));
  gen.min_actors = 4;
  gen.max_actors = 8;
  Sample s{generate_application(gen, rng, "s" + std::to_string(seed)),
           make_benchmark_architecture(static_cast<int>(seed % 3)), Binding(0), {}};
  s.binding = Binding(s.app.sdf().num_actors());
  for (std::uint32_t a = 0; a < s.app.sdf().num_actors(); ++a) {
    std::vector<TileId> supported;
    for (const TileId t : s.arch.tile_ids()) {
      if (s.app.requirement(ActorId{a}, s.arch.tile(t).proc_type)) supported.push_back(t);
    }
    if (supported.empty()) return std::nullopt;
    s.binding.bind(ActorId{a}, supported[rng.index(supported.size())]);
  }
  try {
    ListSchedulingResult ls = construct_schedules(s.app, s.arch, s.binding);
    if (!ls.success) return std::nullopt;
    s.schedules = std::move(ls.schedules);
  } catch (const std::exception&) {
    return std::nullopt;  // a bound graph the list scheduler cannot run
  }
  return s;
}

/// ω with every tile in [1, wheel]; `over` tiles get wheel + 1.
std::vector<std::int64_t> random_slices(const Architecture& arch, Rng& rng, bool over = false) {
  std::vector<std::int64_t> slices(arch.num_tiles());
  for (std::uint32_t t = 0; t < arch.num_tiles(); ++t) {
    slices[t] = rng.uniform(1, arch.tile(TileId{t}).wheel_size);
  }
  if (over) {
    const std::size_t t = rng.index(slices.size());
    slices[t] = arch.tile(TileId{static_cast<std::uint32_t>(t)}).wheel_size + 1;
  }
  return slices;
}

void expect_same_graph(const BindingAwareGraph& got, const BindingAwareGraph& want) {
  ASSERT_EQ(got.graph.num_actors(), want.graph.num_actors());
  ASSERT_EQ(got.graph.num_channels(), want.graph.num_channels());
  for (std::uint32_t a = 0; a < want.graph.num_actors(); ++a) {
    const Actor& x = got.graph.actor(ActorId{a});
    const Actor& y = want.graph.actor(ActorId{a});
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.execution_time, y.execution_time) << y.name;
    EXPECT_EQ(x.inputs, y.inputs);
    EXPECT_EQ(x.outputs, y.outputs);
  }
  for (std::uint32_t c = 0; c < want.graph.num_channels(); ++c) {
    const Channel& x = got.graph.channel(ChannelId{c});
    const Channel& y = want.graph.channel(ChannelId{c});
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.production_rate, y.production_rate);
    EXPECT_EQ(x.consumption_rate, y.consumption_rate);
    EXPECT_EQ(x.initial_tokens, y.initial_tokens);
  }
  EXPECT_EQ(got.actor_tile, want.actor_tile);
  EXPECT_EQ(got.num_app_actors, want.num_app_actors);
  EXPECT_EQ(got.slices, want.slices);
  ASSERT_EQ(got.sync_actors.size(), want.sync_actors.size());
  for (std::size_t i = 0; i < want.sync_actors.size(); ++i) {
    EXPECT_EQ(got.sync_actors[i].actor, want.sync_actors[i].actor);
    EXPECT_EQ(got.sync_actors[i].tile, want.sync_actors[i].tile);
  }
}

constexpr std::uint64_t kSamples = 24;
constexpr int kVectorsPerSample = 4;

TEST(SetSlices, PatchedGraphEqualsFreshBuild) {
  int compared = 0;
  for (std::uint64_t seed = 0; seed < kSamples; ++seed) {
    const auto s = make_sample(seed);
    if (!s) continue;
    Rng rng(seed ^ 0x5eed);
    BindingAwareGraph bag =
        build_binding_aware_graph(s->app, s->arch, s->binding, random_slices(s->arch, rng));
    for (int k = 0; k < kVectorsPerSample; ++k) {
      const auto slices = random_slices(s->arch, rng);
      set_slices(bag, s->arch, slices);
      expect_same_graph(bag, build_binding_aware_graph(s->app, s->arch, s->binding, slices));
      ++compared;
    }
  }
  EXPECT_GE(compared, static_cast<int>(kSamples / 2) * kVectorsPerSample);
}

TEST(SetSlices, SliceAboveTheWheelThrowsTheBuildersMessageAndLeavesTheGraph) {
  int compared = 0;
  int threw = 0;
  for (std::uint64_t seed = 0; seed < kSamples; ++seed) {
    const auto s = make_sample(seed);
    if (!s) continue;
    Rng rng(seed ^ 0x07e7);
    const auto good = random_slices(s->arch, rng);
    BindingAwareGraph bag = build_binding_aware_graph(s->app, s->arch, s->binding, good);
    const auto bad = random_slices(s->arch, rng, /*over=*/true);
    std::string want;
    try {
      (void)build_binding_aware_graph(s->app, s->arch, s->binding, bad);
    } catch (const std::invalid_argument& e) {
      want = e.what();
    }
    std::string got;
    try {
      set_slices(bag, s->arch, bad);
    } catch (const std::invalid_argument& e) {
      got = e.what();
    }
    EXPECT_EQ(got, want);
    if (!want.empty()) ++threw;
    // Thrown or not, the graph is either untouched or fully patched.
    expect_same_graph(bag, build_binding_aware_graph(s->app, s->arch, s->binding,
                                                     want.empty() ? bad : good));
    ++compared;
  }
  EXPECT_GE(compared, static_cast<int>(kSamples / 2));
  EXPECT_GT(threw, 0);
}

TEST(SliceCheck, AnalyzesTheGraphAndSpecOfAFreshBuild) {
  // The cache key encodes the graph's structure and times and every field of
  // the spec, so the one entry a check leaves in an empty cache must be the
  // fresh build's key, word for word.
  const ExecutionLimits limits;
  int compared = 0;
  for (std::uint64_t seed = 0; seed < kSamples; ++seed) {
    const auto s = make_sample(seed);
    if (!s) continue;
    Rng rng(seed ^ 0xc4ec);
    ThroughputCache cache;
    CheckContext ctx;
    SliceCheck check(ctx, "slices", s->app, s->arch, s->binding, s->schedules, limits, {},
                     &cache);
    for (int k = 0; k < kVectorsPerSample; ++k) {
      const auto slices = random_slices(s->arch, rng);
      cache.clear();
      const Rational thr = check.throughput(slices);
      ASSERT_EQ(cache.size(), 1u);

      const BindingAwareGraph fresh =
          build_binding_aware_graph(s->app, s->arch, s->binding, slices);
      const ConstrainedSpec spec = make_constrained_spec(s->arch, fresh, s->schedules);
      const auto hit = cache.lookup(
          constrained_cache_key(fresh.graph, spec, SchedulingMode::kStaticOrder, limits));
      ASSERT_TRUE(hit) << "seed " << seed << ", vector " << k;
      EXPECT_EQ(hit->base.throughput(), thr);
      const auto gamma = compute_repetition_vector(fresh.graph);
      ASSERT_TRUE(gamma);
      EXPECT_EQ(thr, execute_constrained(fresh.graph, *gamma, spec,
                                         SchedulingMode::kStaticOrder, limits)
                         .base.throughput());
      ++compared;
    }
  }
  EXPECT_GE(compared, static_cast<int>(kSamples / 2) * kVectorsPerSample);
}

/// One check exactly as every check ran before SliceCheck: rebuild the
/// binding-aware graph, its repetition vector and spec from scratch.
Rational rebuilding_check(CheckContext& ctx, const Sample& s, ThroughputCache* cache,
                          const ExecutionLimits& limits,
                          const std::vector<std::int64_t>& slices) {
  ExecutionLimits fallback_limits = limits;
  fallback_limits.budget = AnalysisBudget{};
  return checked_throughput(
      ctx, "slices",
      [&] {
        const BindingAwareGraph bag =
            build_binding_aware_graph(s.app, s.arch, s.binding, slices);
        const auto gamma = compute_repetition_vector(bag.graph);
        if (!gamma) return Rational(0);
        const ConstrainedSpec spec = make_constrained_spec(s.arch, bag, s.schedules);
        ExecutionLimits check_limits = limits;
        check_limits.budget = limits.budget.for_one_check();
        return cached_execute_constrained(cache, &ctx.diagnostics.cache, bag.graph, *gamma,
                                          spec, SchedulingMode::kStaticOrder, check_limits)
            .base.throughput();
      },
      [&] {
        return conservative_throughput(s.app, s.arch, s.binding, s.schedules, slices,
                                       fallback_limits, {}, cache, &ctx.diagnostics.cache)
            .base.throughput();
      });
}

/// The visible trace of a check sequence: per check, the fault hook's index
/// and the answer or the error message.
std::vector<std::string> run_sequence(const std::function<Rational(CheckContext&,
                                          const std::vector<std::int64_t>&)>& check,
                                      CheckContext& ctx,
                                      const std::vector<std::vector<std::int64_t>>& vectors) {
  std::vector<std::string> trace;
  ctx.fault_hook = [&trace](int index) { trace.push_back("check " + std::to_string(index)); };
  for (const auto& slices : vectors) {
    try {
      trace.push_back(check(ctx, slices).to_string());
    } catch (const std::invalid_argument& e) {
      trace.push_back(std::string("threw: ") + e.what());
    }
  }
  return trace;
}

TEST(SliceCheck, CheckSequenceMatchesRebuildingEveryCheck) {
  // Default limits; an expired budget under which every exact check gives
  // up and degrades to the conservative bound; and a per-check cap, which
  // both sides turn into a deadline per check (PerCheckCapBoundsEveryCheck
  // shows the cap firing).
  ExecutionLimits expired;
  expired.budget.set_deadline(AnalysisBudget::Clock::now() - std::chrono::seconds(1));
  ExecutionLimits capped;
  capped.budget.set_per_check_timeout(std::chrono::hours(1));
  int compared = 0;
  int threw = 0;
  int degraded = 0;
  for (const ExecutionLimits& limits : {ExecutionLimits{}, expired, capped}) {
    for (std::uint64_t seed = 0; seed < kSamples; ++seed) {
      const auto s = make_sample(seed);
      if (!s) continue;
      Rng rng(seed ^ 0x5e9);
      // Over-wheel vectors first, in the middle and last: before the graph
      // exists, between patches, and after.
      std::vector<std::vector<std::int64_t>> vectors;
      vectors.push_back(random_slices(s->arch, rng, /*over=*/true));
      for (int k = 0; k < kVectorsPerSample; ++k) {
        vectors.push_back(random_slices(s->arch, rng, /*over=*/k == 2));
      }
      vectors.push_back(vectors[1]);  // a repeat: a cache hit on both sides
      vectors.push_back(random_slices(s->arch, rng, /*over=*/true));

      ThroughputCache want_cache;
      CheckContext want_ctx;
      const auto want = run_sequence(
          [&](CheckContext& ctx, const std::vector<std::int64_t>& slices) {
            return rebuilding_check(ctx, *s, &want_cache, limits, slices);
          },
          want_ctx, vectors);

      ThroughputCache got_cache;
      CheckContext got_ctx;
      SliceCheck check(got_ctx, "slices", s->app, s->arch, s->binding, s->schedules, limits,
                       {}, &got_cache);
      const auto got = run_sequence(
          [&](CheckContext&, const std::vector<std::int64_t>& slices) {
            return check.throughput(slices);
          },
          got_ctx, vectors);

      EXPECT_EQ(got, want) << "seed " << seed;
      for (const std::string& line : want) threw += line.rfind("threw: ", 0) == 0 ? 1 : 0;
      EXPECT_EQ(got_ctx.next_check_index, want_ctx.next_check_index);
      EXPECT_EQ(got_ctx.diagnostics.summary(), want_ctx.diagnostics.summary());
      EXPECT_EQ(got_ctx.diagnostics.cache.hits, want_ctx.diagnostics.cache.hits);
      EXPECT_EQ(got_ctx.diagnostics.cache.misses, want_ctx.diagnostics.cache.misses);
      degraded += got_ctx.diagnostics.degraded_checks;
      ++compared;
    }
  }
  EXPECT_GE(compared, static_cast<int>(kSamples) * 3 / 2);
  EXPECT_GT(threw, 0);
  EXPECT_GT(degraded, 0);
}

/// A two-actor ring across the example platform's tiles whose consumer fires
/// `n` times per iteration: one constrained check walks O(n) TDMA instants.
Sample make_long_check(std::int64_t n) {
  GraphBuilder b;
  b.actor("p").actor("c");
  b.channel("p", "c", n, 1, 0, "data");
  b.channel("c", "p", 1, n, n, "credit");
  Sample s{ApplicationGraph("long", b.take(), 2), make_example_platform(), Binding(2), {}};
  for (const ActorId a : s.app.sdf().actor_ids()) {
    s.app.set_requirement(a, ProcTypeId{0}, {1, 1});
    s.app.set_requirement(a, ProcTypeId{1}, {1, 1});
  }
  s.app.set_edge_requirement(ChannelId{0}, {1, 2 * n, 2 * n, 2 * n, 1});
  s.app.set_edge_requirement(ChannelId{1}, {1, 2 * n, 2 * n, 2 * n, 1});
  s.binding.bind(ActorId{0}, *s.arch.find_tile("t1"));
  s.binding.bind(ActorId{1}, *s.arch.find_tile("t2"));
  ListSchedulingResult ls = construct_schedules(s.app, s.arch, s.binding);
  EXPECT_TRUE(ls.success);
  s.schedules = std::move(ls.schedules);
  return s;
}

TEST(SliceCheck, PerCheckCapBoundsEveryCheck) {
  // Unlimited, one check of this ring walks ~10^6 instants (hundreds of ms);
  // under a 1 ms per-check cap the first check (which builds the graph) and a
  // later one (which patches it) must both give up on their own deadline.
  const Sample s = make_long_check(1000000);
  ExecutionLimits limits;
  limits.budget.set_per_check_timeout(std::chrono::milliseconds(1));
  CheckContext ctx;
  ctx.degrade_to_conservative = false;
  SliceCheck check(ctx, "slices", s.app, s.arch, s.binding, s.schedules, limits, {}, nullptr);
  const std::vector<std::vector<std::int64_t>> vectors{{3, 7}, {5, 5}};
  for (const auto& slices : vectors) {
    try {
      (void)check.throughput(slices);
      FAIL() << "the per-check deadline must stop the check";
    } catch (const AnalysisError& e) {
      EXPECT_EQ(e.kind(), AnalysisErrorKind::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(ctx.next_check_index, 2);
}

}  // namespace
}  // namespace sdfmap
