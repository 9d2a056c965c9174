// Unit tests for the pluggable per-prefix storage backends. The hash and
// radix stores must be observably interchangeable (same contents, same
// `for_each_ordered` visit order); the null store must retain nothing.

#include "bgp/rib_backend.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace rfdnet::bgp {
namespace {

// Keys spread across distinct top-level radix branches, same leaf, and
// adjacent slots — exercises node creation/collapse at every level.
const std::vector<Prefix> kKeys = {0u,          1u,          255u,
                                   256u,        0x01020304u, 0x01020305u,
                                   0xff000000u, 0xffffffffu, 42u};

class RetainingBackendTest : public ::testing::TestWithParam<RibBackendKind> {
};

TEST_P(RetainingBackendTest, FindNeverCreates) {
  RibTable<int> t(GetParam());
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(std::as_const(t).find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST_P(RetainingBackendTest, CreateFindEraseRoundTrip) {
  RibTable<int> t(GetParam());
  EXPECT_TRUE(t.retains());
  for (std::size_t i = 0; i < kKeys.size(); ++i) {
    t.find_or_create(kKeys[i]) = static_cast<int>(i);
  }
  EXPECT_EQ(t.size(), kKeys.size());
  for (std::size_t i = 0; i < kKeys.size(); ++i) {
    ASSERT_NE(t.find(kKeys[i]), nullptr);
    EXPECT_EQ(*t.find(kKeys[i]), static_cast<int>(i));
  }
  // find_or_create on an existing key hands back the same value.
  EXPECT_EQ(t.find_or_create(kKeys[0]), 0);
  EXPECT_EQ(t.size(), kKeys.size());

  EXPECT_TRUE(t.erase(kKeys[3]));
  EXPECT_FALSE(t.erase(kKeys[3]));  // already gone
  EXPECT_EQ(t.find(kKeys[3]), nullptr);
  EXPECT_EQ(t.size(), kKeys.size() - 1);
  // Neighbors in the same leaf survive the erase.
  EXPECT_NE(t.find(kKeys[4]), nullptr);

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(kKeys[0]), nullptr);
}

TEST_P(RetainingBackendTest, OrderedIterationIsAscending) {
  RibTable<int> t(GetParam());
  for (const Prefix p : kKeys) t.find_or_create(p) = 1;
  std::vector<Prefix> sorted = kKeys;
  std::sort(sorted.begin(), sorted.end());

  std::vector<Prefix> visited;
  t.for_each_ordered([&](Prefix p, int& v) {
    visited.push_back(p);
    EXPECT_EQ(v, 1);
  });
  EXPECT_EQ(visited, sorted);

  visited.clear();
  std::as_const(t).for_each_ordered(
      [&](Prefix p, const int&) { visited.push_back(p); });
  EXPECT_EQ(visited, sorted);
}

TEST_P(RetainingBackendTest, UnorderedIterationVisitsEverythingOnce) {
  RibTable<int> t(GetParam());
  for (const Prefix p : kKeys) t.find_or_create(p) = 1;
  std::vector<Prefix> visited;
  t.for_each([&](Prefix p, int&) { visited.push_back(p); });
  std::sort(visited.begin(), visited.end());
  std::vector<Prefix> sorted = kKeys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(visited, sorted);
}

TEST_P(RetainingBackendTest, EraseToEmptyAndRefill) {
  RibTable<int> t(GetParam());
  // Full 256-slot leaf: erasing all of it must hand the block back (radix
  // collapse path) and leave the table reusable.
  for (Prefix p = 512; p < 768; ++p) t.find_or_create(p) = 1;
  EXPECT_EQ(t.size(), 256u);
  for (Prefix p = 512; p < 768; ++p) EXPECT_TRUE(t.erase(p));
  EXPECT_EQ(t.size(), 0u);
  t.find_or_create(600) = 2;
  ASSERT_NE(t.find(600), nullptr);
  EXPECT_EQ(*t.find(600), 2);
}

// Every operation on a table that was never written: on the radix store the
// trie root has not been allocated yet.
TEST_P(RetainingBackendTest, NeverWrittenTableIsEmpty) {
  RibTable<int> t(GetParam());
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(std::as_const(t).find(0xffffffffu), nullptr);
  EXPECT_FALSE(t.erase(0));
  EXPECT_FALSE(t.erase(0x01020304u));
  int visits = 0;
  t.for_each([&](Prefix, int&) { ++visits; });
  t.for_each_ordered([&](Prefix, int&) { ++visits; });
  std::as_const(t).for_each_ordered([&](Prefix, const int&) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(t.size(), 0u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  // Still usable after clearing an unallocated trie.
  t.find_or_create(42) = 7;
  ASSERT_NE(t.find(42), nullptr);
  EXPECT_EQ(*t.find(42), 7);
}

// A table emptied key by key (the radix root then holds no children) and a
// table emptied by clear (the radix root is released) both behave as empty
// and take new keys.
TEST_P(RetainingBackendTest, TableEmptiedByEraseOrClearIsEmpty) {
  RibTable<int> t(GetParam());
  for (const Prefix p : kKeys) t.find_or_create(p) = 1;
  for (const Prefix p : kKeys) EXPECT_TRUE(t.erase(p));
  EXPECT_EQ(t.size(), 0u);
  for (const Prefix p : kKeys) {
    EXPECT_EQ(t.find(p), nullptr);
    EXPECT_FALSE(t.erase(p));
  }
  int visits = 0;
  t.for_each_ordered([&](Prefix, int&) { ++visits; });
  t.for_each([&](Prefix, int&) { ++visits; });
  EXPECT_EQ(visits, 0);

  t.find_or_create(kKeys[4]) = 3;
  EXPECT_EQ(t.size(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(kKeys[4]), nullptr);
  EXPECT_FALSE(t.erase(kKeys[4]));
  t.for_each_ordered([&](Prefix, int&) { ++visits; });
  EXPECT_EQ(visits, 0);
  t.clear();  // clearing twice is harmless
  t.find_or_create(kKeys[7]) = 4;
  std::vector<Prefix> visited;
  t.for_each_ordered([&](Prefix p, int&) { visited.push_back(p); });
  EXPECT_EQ(visited, std::vector<Prefix>{kKeys[7]});
}

INSTANTIATE_TEST_SUITE_P(Backends, RetainingBackendTest,
                         ::testing::Values(RibBackendKind::kHashMap,
                                           RibBackendKind::kRadix),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(NullBackendTest, RetainsNothing) {
  RibTable<int> t(RibBackendKind::kNull);
  EXPECT_FALSE(t.retains());
  t.find_or_create(7) = 99;
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.erase(7));
  int visits = 0;
  t.for_each([&](Prefix, int&) { ++visits; });
  t.for_each_ordered([&](Prefix, int&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(NullBackendTest, ScratchSlotIsResetPerAccess) {
  RibTable<std::vector<int>> t(RibBackendKind::kNull);
  t.find_or_create(1).push_back(5);
  // The next access must see a value-initialized T, not yesterday's scratch.
  EXPECT_TRUE(t.find_or_create(1).empty());
}

// The radix trie root is a heap node allocated on first insert, not a
// 256-pointer array inside every table: std::variant reserves room for its
// largest alternative, so an inline root cost each table ~2 KB whichever
// store it ran on.
TEST(RibTableLayout, TableDoesNotEmbedTheTrieRoot) {
  EXPECT_LE(sizeof(RibTable<int>), 128u);
  EXPECT_LE(sizeof(detail::RadixStore<int>), 2 * sizeof(void*));
}

TEST(RibBackendKindTest, ParseAndToStringRoundTrip) {
  for (const RibBackendKind k : kAllRibBackends) {
    const auto parsed = parse_rib_backend(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(parse_rib_backend("hash-map"), RibBackendKind::kHashMap);
  EXPECT_EQ(parse_rib_backend("trie"), RibBackendKind::kRadix);
  EXPECT_EQ(parse_rib_backend("none"), RibBackendKind::kNull);
  EXPECT_FALSE(parse_rib_backend("btree").has_value());
  EXPECT_FALSE(parse_rib_backend("").has_value());
}

}  // namespace
}  // namespace rfdnet::bgp
