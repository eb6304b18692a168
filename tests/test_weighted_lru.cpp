// WeightedLru, the LRU core under every serving-layer cache: recency order,
// weight-bound eviction with its reported counts and weights, oversize
// refusal, insert-of-existing, capacity shrinking, and the collision
// discipline (two keys on one bucket hash stay distinct) — in the core
// itself and through SubgraphCache, whose caller-supplied hash makes a
// collision reachable from its public API.

#include "support/weighted_lru.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/subgraph_cache.hpp"

namespace sts {
namespace {

using Lru = WeightedLru<std::string, int>;

std::uint64_t h(std::string_view key) { return std::hash<std::string_view>{}(key); }

void put(Lru& lru, const std::string& key, int value, std::size_t weight = 1) {
  ASSERT_NE(lru.insert(h(key), key, value, weight).value, nullptr) << key;
}

/// Resident values, most recently used first.
std::vector<int> order(const Lru& lru) {
  std::vector<int> values;
  lru.for_each([&values](int v) { values.push_back(v); });
  return values;
}

TEST(WeightedLru, FindBumpsRecencyPeekDoesNot) {
  Lru lru(3);
  put(lru, "a", 1);
  put(lru, "b", 2);
  put(lru, "c", 3);
  EXPECT_EQ(order(lru), (std::vector<int>{3, 2, 1}));

  const int* peeked = lru.peek(h("a"), std::string_view("a"));
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(*peeked, 1);
  EXPECT_EQ(order(lru), (std::vector<int>{3, 2, 1}));

  int* found = lru.find(h("a"), std::string_view("a"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 1);
  EXPECT_EQ(order(lru), (std::vector<int>{1, 3, 2}));

  // The LRU tail ("b") is the one a fourth entry pushes out.
  const Lru::Insertion insertion = lru.insert(h("d"), "d", 4, 1);
  EXPECT_EQ(insertion.evicted.count, 1u);
  EXPECT_EQ(lru.peek(h("b"), std::string_view("b")), nullptr);
  EXPECT_EQ(order(lru), (std::vector<int>{4, 1, 3}));
  EXPECT_EQ(lru.find(h("zz"), std::string_view("zz")), nullptr);
}

TEST(WeightedLru, EvictionReportsCountAndWeight) {
  Lru lru(10);
  put(lru, "a", 1, 3);
  put(lru, "b", 2, 3);
  put(lru, "c", 3, 3);
  EXPECT_EQ(lru.weight(), 9u);

  // Weight 5 needs 4 freed: the two oldest entries (3 + 3) go.
  const Lru::Insertion insertion = lru.insert(h("d"), "d", 4, 5);
  ASSERT_NE(insertion.value, nullptr);
  EXPECT_EQ(*insertion.value, 4);
  EXPECT_EQ(insertion.evicted.count, 2u);
  EXPECT_EQ(insertion.evicted.weight, 6u);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.weight(), 8u);
  EXPECT_EQ(order(lru), (std::vector<int>{4, 3}));

  // Filling exactly to the bound evicts nothing.
  const Lru::Insertion exact = lru.insert(h("e"), "e", 5, 2);
  EXPECT_EQ(exact.evicted.count, 0u);
  EXPECT_EQ(exact.evicted.weight, 0u);
  EXPECT_EQ(lru.weight(), 10u);
}

TEST(WeightedLru, OversizeEntryIsRefusedWithoutEvicting) {
  Lru lru(4);
  put(lru, "a", 1, 2);
  put(lru, "b", 2, 2);
  const Lru::Insertion refused = lru.insert(h("big"), "big", 9, 5);
  EXPECT_EQ(refused.value, nullptr);
  EXPECT_EQ(refused.evicted.count, 0u);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.weight(), 4u);
  EXPECT_EQ(lru.peek(h("big"), std::string_view("big")), nullptr);

  // Capacity 0 refuses every positive weight: the "disabled" setting.
  Lru disabled(0);
  EXPECT_EQ(disabled.insert(h("a"), "a", 1, 1).value, nullptr);
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(WeightedLru, InsertOfExistingKeyReturnsTheResidentValue) {
  Lru lru(10);
  put(lru, "a", 1, 2);
  put(lru, "b", 2, 2);
  const Lru::Insertion again = lru.insert(h("a"), "a", 99, 7);
  ASSERT_NE(again.value, nullptr);
  EXPECT_EQ(*again.value, 1) << "the resident value wins";
  EXPECT_EQ(again.evicted.count, 0u);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.weight(), 4u) << "the rejected duplicate's weight is not counted";
  EXPECT_EQ(order(lru), (std::vector<int>{2, 1})) << "no recency bump";
}

TEST(WeightedLru, SetCapacityShrinksFromTheTail) {
  Lru lru(10);
  for (int i = 0; i < 5; ++i) put(lru, std::to_string(i), i, 2);
  (void)lru.find(h("0"), std::string_view("0"));  // oldest becomes newest
  const Lru::Evicted shrunk = lru.set_capacity(5);
  EXPECT_EQ(shrunk.count, 3u);
  EXPECT_EQ(shrunk.weight, 6u);
  EXPECT_EQ(lru.capacity(), 5u);
  EXPECT_EQ(lru.weight(), 4u);
  EXPECT_EQ(order(lru), (std::vector<int>{0, 4}));

  const Lru::Evicted grown = lru.set_capacity(100);
  EXPECT_EQ(grown.count, 0u);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(WeightedLru, EraseAndClear) {
  Lru lru(10);
  put(lru, "a", 1, 3);
  put(lru, "b", 2, 4);
  EXPECT_TRUE(lru.erase(h("a"), std::string_view("a")));
  EXPECT_FALSE(lru.erase(h("a"), std::string_view("a")));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.weight(), 4u);
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.weight(), 0u);
  EXPECT_EQ(lru.capacity(), 10u);
  put(lru, "a", 5);
  EXPECT_EQ(*lru.find(h("a"), std::string_view("a")), 5);
}

TEST(WeightedLru, CollidingHashesStayDistinct) {
  constexpr std::uint64_t kSame = 42;
  Lru lru(3);
  ASSERT_NE(lru.insert(kSame, "x", 1, 1).value, nullptr);
  ASSERT_NE(lru.insert(kSame, "y", 2, 1).value, nullptr);
  EXPECT_EQ(lru.size(), 2u) << "a colliding key is a new entry, not a duplicate";
  EXPECT_EQ(*lru.find(kSame, std::string_view("x")), 1);
  EXPECT_EQ(*lru.find(kSame, std::string_view("y")), 2);
  EXPECT_EQ(lru.find(kSame, std::string_view("z")), nullptr) << "collision degrades to a miss";

  // Evicting one of the pair ("x", now the LRU tail after the finds above
  // bumped "y" last) leaves the other findable.
  ASSERT_NE(lru.insert(kSame, "z", 3, 1).value, nullptr);
  ASSERT_NE(lru.insert(7, "w", 4, 1).value, nullptr);
  EXPECT_EQ(lru.peek(kSame, std::string_view("x")), nullptr);
  ASSERT_NE(lru.peek(kSame, std::string_view("y")), nullptr);
  EXPECT_EQ(*lru.peek(kSame, std::string_view("y")), 2);
  EXPECT_EQ(*lru.peek(kSame, std::string_view("z")), 3);

  EXPECT_TRUE(lru.erase(kSame, std::string_view("y")));
  EXPECT_EQ(*lru.find(kSame, std::string_view("z")), 3);
}

ScheduleResult fragment_with_makespan(std::int64_t makespan) {
  ScheduleResult result;
  result.makespan = makespan;
  return result;
}

TEST(SubgraphCacheCollision, TwoKeysOnOneHashKeepTheirOwnFragments) {
  constexpr std::uint64_t kSame = 0x5eed;
  SubgraphCache cache(2);
  (void)cache.insert(kSame, "ctx", "form-a", fragment_with_makespan(11), 1);
  (void)cache.insert(kSame, "ctx", "form-b", fragment_with_makespan(22), 1);
  EXPECT_EQ(cache.size(), 2u);

  const auto a = cache.find(kSame, "ctx", "form-a", false);
  const auto b = cache.find(kSame, "ctx", "form-b", false);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->makespan, 11);
  EXPECT_EQ(b->makespan, 22);
  // Same form under another context is a different key on the same hash.
  EXPECT_EQ(cache.find(kSame, "other", "form-a", false), nullptr);

  // A third entry evicts the LRU one of the pair ("form-a"); "form-b" stays.
  (void)cache.insert(kSame, "ctx", "form-c", fragment_with_makespan(33), 1);
  EXPECT_EQ(cache.find(kSame, "ctx", "form-a", false), nullptr);
  const auto still = cache.find(kSame, "ctx", "form-b", false);
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still->makespan, 22);

  const SubgraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.partition_hits, 3u);
  EXPECT_EQ(stats.partition_misses, 2u);
}

}  // namespace
}  // namespace sts
