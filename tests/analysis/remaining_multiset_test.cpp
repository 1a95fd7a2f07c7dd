#include "src/analysis/remaining_multiset.h"

#include <gtest/gtest.h>

namespace sdfmap {
namespace {

TEST(RemainingMultiset, StartsEmpty) {
  const RemainingMultiset m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.due(0), 0);
  EXPECT_EQ(m.total(), 0);
}

TEST(RemainingMultiset, AddMergesEqualValues) {
  RemainingMultiset m;
  m.add(5, 3);
  m.add(5, 2);
  m.add(2, 1);
  EXPECT_EQ(m.total(), 6);
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.front(), 2);
  EXPECT_EQ(m.entries()[1].finish, 5);
  EXPECT_EQ(m.entries()[1].count, 5);
}

TEST(RemainingMultiset, AddIgnoresNonPositiveCounts) {
  RemainingMultiset m;
  m.add(1, 0);
  m.add(1, -2);
  EXPECT_TRUE(m.empty());
}

TEST(RemainingMultiset, KeepsSortedOrder) {
  RemainingMultiset m;
  m.add(7, 1);
  m.add(3, 1);
  m.add(5, 1);
  m.add(9, 1);  // appended at the back
  ASSERT_EQ(m.entries().size(), 4u);
  EXPECT_EQ(m.entries()[0].finish, 3);
  EXPECT_EQ(m.entries()[1].finish, 5);
  EXPECT_EQ(m.entries()[2].finish, 7);
  EXPECT_EQ(m.entries()[3].finish, 9);
}

TEST(RemainingMultiset, AdvanceAndZeroHandling) {
  // Firings hold absolute finish times: advancing the clock to the earliest
  // finish makes exactly those firings due, without touching the entries.
  RemainingMultiset m;
  m.add(4, 2);
  m.add(9, 1);
  EXPECT_EQ(m.due(3), 0);
  EXPECT_EQ(m.due(4), 2);
  m.pop_front();
  EXPECT_EQ(m.due(4), 0);
  EXPECT_EQ(m.front(), 9);
  EXPECT_EQ(m.total(), 1);
}

TEST(RemainingMultiset, EncodeIsCanonical) {
  RemainingMultiset a;
  a.add(12, 3);
  a.add(16, 1);
  RemainingMultiset b;
  b.add(16, 1);
  b.add(12, 1);
  b.add(12, 2);
  std::vector<std::int64_t> wa, wb;
  a.encode(10, wa);
  b.encode(10, wb);
  EXPECT_EQ(wa, wb);  // same multiset, same key regardless of insertion order
  // Remaining times relative to `now`, exactly the words the relative-time
  // representation encoded, so state keys are unchanged.
  EXPECT_EQ(wa, (std::vector<std::int64_t>{2, 2, 3, 6, 1}));
}

TEST(RemainingMultiset, ZeroRemainingEntriesMerge) {
  RemainingMultiset m;
  m.add(7, 2);
  m.add(7, 1);
  EXPECT_EQ(m.due(7), 3);
}

}  // namespace
}  // namespace sdfmap
