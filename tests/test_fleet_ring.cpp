// Consistent-hash ring tests: determinism, reasonable key spread over
// weighted virtual nodes, failover preference order, and the property the
// router's front caching depends on — adding one backend of N remaps only
// about 1/N of the fingerprints.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/ring.hpp"

namespace eus::fleet {
namespace {

std::vector<std::string> keys(std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back("fingerprint|custom|seed=" + std::to_string(i) +
                  "|nsga2|pop=32|gen=32");
  }
  return out;
}

TEST(FleetRing, Fnv1aIsTheReferenceFunction) {
  // Reference vectors for 64-bit FNV-1a.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ULL);
  EXPECT_EQ(fnv1a64("foobar"), 9625390261332436968ULL);
}

TEST(FleetRing, EmptyRingOwnsNothing) {
  const HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.owner("anything"), "");
  EXPECT_TRUE(ring.preference("anything").empty());
}

TEST(FleetRing, OwnerIsDeterministicAndInsertionOrderIndependent) {
  HashRing forward;
  forward.add("a");
  forward.add("b");
  forward.add("c");
  HashRing backward;
  backward.add("c");
  backward.add("b");
  backward.add("a");
  for (const std::string& key : keys(200)) {
    EXPECT_EQ(forward.owner(key), backward.owner(key)) << key;
  }
}

TEST(FleetRing, SpreadsKeysAcrossEqualBackends) {
  HashRing ring;
  ring.add("a");
  ring.add("b");
  ring.add("c");
  std::map<std::string, std::size_t> hits;
  const std::size_t total = 3000;
  for (const std::string& key : keys(total)) ++hits[ring.owner(key)];
  ASSERT_EQ(hits.size(), 3U);
  for (const auto& [name, count] : hits) {
    // Equal weights should land within a loose band of the 1/3 share;
    // virtual nodes keep the variance modest.
    EXPECT_GT(count, total / 6) << name;
    EXPECT_LT(count, total / 2) << name;
  }
}

TEST(FleetRing, WeightTiltsOwnership) {
  HashRing ring;
  ring.add("fast", 3.0);
  ring.add("slow", 1.0);
  std::size_t fast = 0;
  const std::size_t total = 3000;
  for (const std::string& key : keys(total)) {
    if (ring.owner(key) == "fast") ++fast;
  }
  // A 3x-weighted backend should own clearly more than half the keys.
  EXPECT_GT(fast, total / 2);
}

TEST(FleetRing, PreferenceListsEveryBackendOnceOwnerFirst) {
  HashRing ring;
  ring.add("a");
  ring.add("b");
  ring.add("c");
  // preference() names each backend by its position in add() order.
  const std::vector<std::string> added = {"a", "b", "c"};
  for (const std::string& key : keys(50)) {
    const std::vector<std::uint32_t> order = ring.preference(key);
    ASSERT_EQ(order.size(), 3U) << key;
    EXPECT_EQ(added.at(order.front()), ring.owner(key)) << key;
    std::vector<std::string> sorted;
    for (const std::uint32_t position : order) {
      sorted.push_back(added.at(position));
    }
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, added) << key;
  }
}

TEST(FleetRing, AddingOneBackendRemapsAboutOneNth) {
  HashRing three;
  three.add("a");
  three.add("b");
  three.add("c");
  HashRing four = three;
  four.add("d");

  const std::size_t total = 4000;
  std::size_t moved = 0;
  std::size_t moved_to_d = 0;
  for (const std::string& key : keys(total)) {
    const std::string before = three.owner(key);
    const std::string after = four.owner(key);
    if (before != after) {
      ++moved;
      if (after == "d") ++moved_to_d;
    }
  }
  // The point of consistent hashing: growing 3 -> 4 should move ~1/4 of
  // the keyspace, and everything that moves should move TO the new
  // backend, never between survivors.
  EXPECT_EQ(moved, moved_to_d);
  EXPECT_GT(moved, total / 8);   // at least half the ideal share
  EXPECT_LT(moved, total * 3 / 8);  // well under naive-mod-N's ~3/4
}

}  // namespace
}  // namespace eus::fleet
