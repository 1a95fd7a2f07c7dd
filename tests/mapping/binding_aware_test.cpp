#include "src/mapping/binding_aware.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/state_space.h"
#include "src/appmodel/paper_example.h"
#include "src/platform/mesh.h"
#include "src/sdf/repetition_vector.h"

namespace sdfmap {
namespace {

class BindingAwareTest : public ::testing::Test {
 protected:
  BindingAwareTest()
      : arch_(make_example_platform()),
        app_(make_paper_example_application()),
        binding_(make_paper_example_binding(arch_)) {}

  BindingAwareGraph build(std::vector<std::int64_t> slices = {5, 5}) {
    return build_binding_aware_graph(app_, arch_, binding_, slices);
  }

  Architecture arch_;
  ApplicationGraph app_;
  Binding binding_;
};

TEST_F(BindingAwareTest, AppActorsKeepIdsAndGetBoundExecTimes) {
  const BindingAwareGraph bag = build();
  EXPECT_EQ(bag.num_app_actors, 3u);
  EXPECT_EQ(bag.graph.actor(ActorId{0}).name, "a1");
  EXPECT_EQ(bag.graph.actor(ActorId{0}).execution_time, 1);  // τ(a1, p1)
  EXPECT_EQ(bag.graph.actor(ActorId{2}).execution_time, 2);  // τ(a3, p2)
  EXPECT_EQ(bag.actor_tile[0], 0);
  EXPECT_EQ(bag.actor_tile[2], 1);
}

TEST_F(BindingAwareTest, SelfLoopsAddedToAllAppActors) {
  const BindingAwareGraph bag = build();
  for (std::uint32_t a = 0; a < 3; ++a) {
    EXPECT_TRUE(bag.graph.has_self_loop(ActorId{a}));
  }
}

TEST_F(BindingAwareTest, ConnectionActorTiming) {
  const BindingAwareGraph bag = build();
  // d2 crosses t1 -> t2: Υ(conn) = L + ceil(sz/β) = 1 + ceil(100/10) = 11
  // (the paper's value), Υ(sync) = w_t2 − ω_t2 = 10 − 5 = 5.
  const auto conn = bag.graph.find_actor("conn_d2");
  const auto sync = bag.graph.find_actor("sync_d2");
  ASSERT_TRUE(conn && sync);
  EXPECT_EQ(bag.graph.actor(*conn).execution_time, 11);
  EXPECT_EQ(bag.graph.actor(*sync).execution_time, 5);
  EXPECT_EQ(bag.actor_tile[conn->value], kUnscheduled);
  EXPECT_TRUE(bag.graph.has_self_loop(*conn));
  EXPECT_FALSE(bag.graph.has_self_loop(*sync));
}

TEST_F(BindingAwareTest, PureSynchronizationEdgeHasLatencyOnlyConnActor) {
  const BindingAwareGraph bag = build();
  // d3 (β = 0) crosses t2 -> t1: transfer time is just L(c2) = 1.
  const auto conn = bag.graph.find_actor("conn_d3");
  ASSERT_TRUE(conn);
  EXPECT_EQ(bag.graph.actor(*conn).execution_time, 1);
  // No buffer back-edges for α = 0: conn_d3 has exactly 2 inputs (self loop +
  // data) — no dstbuf edge from a1.
  EXPECT_EQ(bag.graph.actor(*conn).inputs.size(), 2u);
}

TEST_F(BindingAwareTest, IntraTileBufferBackEdge) {
  const BindingAwareGraph bag = build();
  // d1 stays on t1 with α_tile = 1: reverse channel a2 -> a1 with 1 token.
  bool found = false;
  for (const Channel& c : bag.graph.channels()) {
    if (c.name == "d1_buf") {
      found = true;
      EXPECT_EQ(bag.graph.actor(c.src).name, "a2");
      EXPECT_EQ(bag.graph.actor(c.dst).name, "a1");
      EXPECT_EQ(c.initial_tokens, 1);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(BindingAwareTest, CrossEdgeBufferBackEdges) {
  const BindingAwareGraph bag = build();
  bool src_buf = false, dst_buf = false;
  for (const Channel& c : bag.graph.channels()) {
    if (c.name == "d2_srcbuf") {
      src_buf = true;
      EXPECT_EQ(c.initial_tokens, 2);  // α_src
    }
    if (c.name == "d2_dstbuf") {
      dst_buf = true;
      EXPECT_EQ(c.initial_tokens, 2);  // α_dst − Tok
    }
  }
  EXPECT_TRUE(src_buf);
  EXPECT_TRUE(dst_buf);
}

TEST_F(BindingAwareTest, InitialTokensLandOnDeliveredSegment) {
  PaperExampleShape shape;
  const BindingAwareGraph bag = build();
  for (const Channel& c : bag.graph.channels()) {
    if (c.name == "d3_dst") EXPECT_EQ(c.initial_tokens, shape.tok3);
    if (c.name == "d3_src") EXPECT_EQ(c.initial_tokens, 0);
  }
}

TEST_F(BindingAwareTest, ConsistentAndMatchesPaperThroughput) {
  const BindingAwareGraph bag = build();
  const auto gamma = compute_repetition_vector(bag.graph);
  ASSERT_TRUE(gamma);
  const SelfTimedResult r = self_timed_throughput(bag.graph, *gamma);
  ASSERT_FALSE(r.deadlocked());
  // Fig. 5(b): a3 fires once every 29 time units; γ(a3) = 1.
  EXPECT_EQ(r.iteration_period / Rational((*gamma)[2]), Rational(29));
}

TEST_F(BindingAwareTest, SliceBeyondWheelThrows) {
  EXPECT_THROW(build({11, 5}), std::invalid_argument);
}

TEST_F(BindingAwareTest, IncompleteBindingThrows) {
  Binding partial(3);
  partial.bind(ActorId{0}, TileId{0});
  EXPECT_THROW(build_binding_aware_graph(app_, arch_, partial, {5, 5}),
               std::invalid_argument);
}

TEST_F(BindingAwareTest, AlphaSmallerThanTokensThrows) {
  ApplicationGraph app = make_paper_example_application();
  EdgeRequirement req = app.edge_requirement(ChannelId{2});
  req.alpha_tile = 1;  // < tok3 = 4 when d3 ends up intra-tile
  app.set_edge_requirement(ChannelId{2}, req);
  Binding all_on_t1(3);
  for (std::uint32_t a = 0; a < 3; ++a) all_on_t1.bind(ActorId{a}, TileId{0});
  EXPECT_THROW(build_binding_aware_graph(app, arch_, all_on_t1, {5, 5}),
               std::invalid_argument);
}

/// what() of the invalid_argument `f` throws, or "" when it does not throw.
template <typename F>
std::string invalid_argument_of(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST_F(BindingAwareTest, SliceErrorsOfEarlierChannelsPrecedeAStructuralError) {
  // d2 (a2 -> a3) delivers to t2, then d3 (a3 -> a1) delivers to t1 and has
  // α_dst below its initial tokens.
  ApplicationGraph app = make_paper_example_application();
  EdgeRequirement req = app.edge_requirement(ChannelId{2});
  req.alpha_dst = 1;  // < tok3 = 2
  app.set_edge_requirement(ChannelId{2}, req);
  const auto message = [&](std::vector<std::int64_t> slices) {
    return invalid_argument_of(
        [&] { (void)build_binding_aware_graph(app, arch_, binding_, slices); });
  };
  EXPECT_EQ(message({5, 5}), "build_binding_aware_graph: α_dst < Tok on 'd3'");
  EXPECT_EQ(message({5, 11}), "build_binding_aware_graph: slice exceeds wheel on 't2'");
  // d3's own slice is checked before its α_dst.
  EXPECT_EQ(message({11, 5}), "build_binding_aware_graph: slice exceeds wheel on 't1'");
}

TEST_F(BindingAwareTest, SetSlicesRetimesTheSyncActorsOnly) {
  BindingAwareGraph bag = build();
  ASSERT_EQ(bag.sync_actors.size(), 2u);  // d2 into t2, d3 into t1
  set_slices(bag, arch_, {3, 7});
  EXPECT_EQ(bag.graph.actor(*bag.graph.find_actor("sync_d2")).execution_time, 10 - 7);
  EXPECT_EQ(bag.graph.actor(*bag.graph.find_actor("sync_d3")).execution_time, 10 - 3);
  EXPECT_EQ(bag.slices, (std::vector<std::int64_t>{3, 7}));
  const BindingAwareGraph fresh = build({3, 7});
  for (std::uint32_t a = 0; a < fresh.graph.num_actors(); ++a) {
    EXPECT_EQ(bag.graph.actor(ActorId{a}).execution_time,
              fresh.graph.actor(ActorId{a}).execution_time);
  }

  // A rejected vector throws the builder's message and changes nothing.
  EXPECT_EQ(invalid_argument_of([&] { set_slices(bag, arch_, {11, 5}); }),
            "build_binding_aware_graph: slice exceeds wheel on 't1'");
  EXPECT_EQ(invalid_argument_of([&] { set_slices(bag, arch_, {5}); }),
            "build_binding_aware_graph: slices/tile count mismatch");
  EXPECT_EQ(bag.slices, (std::vector<std::int64_t>{3, 7}));
  EXPECT_EQ(bag.graph.actor(*bag.graph.find_actor("sync_d2")).execution_time, 3);
  EXPECT_EQ(bag.graph.actor(*bag.graph.find_actor("sync_d3")).execution_time, 7);
}

TEST_F(BindingAwareTest, HalfWheelSlices) {
  Architecture arch = make_example_platform();
  arch.tile(TileId{0}).occupied_wheel = 4;  // 6 left -> slice 3
  const auto slices = half_wheel_slices(arch);
  EXPECT_EQ(slices[0], 3);
  EXPECT_EQ(slices[1], 5);
}

TEST_F(BindingAwareTest, AllActorsOneTileHasNoConnActors) {
  Binding all_on_t1(3);
  for (std::uint32_t a = 0; a < 3; ++a) all_on_t1.bind(ActorId{a}, TileId{0});
  const BindingAwareGraph bag = build_binding_aware_graph(app_, arch_, all_on_t1, {5, 5});
  EXPECT_FALSE(bag.graph.find_actor("conn_d2").has_value());
  // 3 app actors only.
  EXPECT_EQ(bag.graph.num_actors(), 3u);
}

}  // namespace
}  // namespace sdfmap
