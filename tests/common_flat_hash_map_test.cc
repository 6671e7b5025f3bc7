// FlatHashMap: open-addressing semantics, backward-shift deletion, and
// memory accounting, validated against std::unordered_map as the oracle.
#include "common/flat_hash_map.h"

#include <cstdint>

#include "common/slab.h"
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace nomloc::common {
namespace {

std::uint64_t NextRandom(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(FlatHashMap, InsertFindBasics) {
  FlatHashMap<std::uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);

  auto [value, created] = map.Insert(42);
  EXPECT_TRUE(created);
  *value = 7;
  EXPECT_EQ(map.size(), 1u);

  auto [again, created_again] = map.Insert(42);
  EXPECT_FALSE(created_again);
  EXPECT_EQ(*again, 7);
  EXPECT_EQ(map.size(), 1u);

  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 7);
}

TEST(FlatHashMap, EraseRemovesAndReportsAbsence) {
  FlatHashMap<std::uint64_t, int> map;
  *map.Insert(1).first = 10;
  *map.Insert(2).first = 20;
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  ASSERT_NE(map.Find(2), nullptr);
  EXPECT_EQ(*map.Find(2), 20);
  EXPECT_EQ(map.size(), 1u);
}

// Adjacent integer keys cluster under weak hashes; interleaved inserts
// and erases exercise the backward-shift path where a probe chain must
// slide over the freed gap without stranding any entry.
TEST(FlatHashMap, RandomizedAgainstUnorderedMap) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t rng = 99;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = NextRandom(rng) % 512;  // force collisions
    switch (NextRandom(rng) % 3) {
      case 0: {  // insert/overwrite
        const std::uint64_t value = NextRandom(rng);
        *map.Insert(key).first = value;
        oracle[key] = value;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(map.Erase(key), oracle.erase(key) > 0) << "key " << key;
        break;
      }
      default: {  // lookup
        const auto it = oracle.find(key);
        const std::uint64_t* found = map.Find(key);
        if (it == oracle.end()) {
          EXPECT_EQ(found, nullptr) << "key " << key;
        } else {
          ASSERT_NE(found, nullptr) << "key " << key;
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), oracle.size());
  }
  // Full sweep: every surviving key readable, none extra.
  std::size_t visited = 0;
  map.ForEach([&](const std::uint64_t& key, std::uint64_t& value) {
    ++visited;
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatHashMap, ReserveAvoidsRehashAndKeepsLoadBounded) {
  FlatHashMap<std::uint64_t, int> map;
  map.Reserve(1000);
  const std::size_t capacity = map.capacity();
  EXPECT_GE(capacity * 3, 4u * 1000);  // holds 1000 at <= 0.75 load
  for (std::uint64_t key = 0; key < 1000; ++key) *map.Insert(key).first = 1;
  EXPECT_EQ(map.capacity(), capacity) << "Reserve(1000) should pre-size";
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatHashMap, ClearKeepsCapacity) {
  FlatHashMap<std::uint64_t, int> map;
  for (std::uint64_t key = 0; key < 100; ++key) *map.Insert(key).first = 1;
  const std::size_t bytes = map.CapacityBytes();
  EXPECT_GT(bytes, 0u);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.CapacityBytes(), bytes);
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatHashMap, SlabAllocFreeReuse) {
  Slab<int> slab;
  const std::uint32_t a = slab.Alloc();
  const std::uint32_t b = slab.Alloc();
  EXPECT_NE(a, b);
  EXPECT_EQ(slab.live(), 2u);
  slab[a] = 7;
  slab.Free(a);
  EXPECT_FALSE(slab.IsLive(a));
  EXPECT_EQ(slab.live(), 1u);
  // Freed slot is reused before the backing vector grows, and its
  // payload was reset on Free.
  const std::uint32_t c = slab.Alloc();
  EXPECT_EQ(c, a);
  EXPECT_EQ(slab[c], 0);
  EXPECT_EQ(slab.capacity(), 2u);
}


TEST(FlatHashMap, SlabReserveCoversEveryPerSlotArray) {
  // Reserve pre-sizes the records, the live bytes and the freelist chain,
  // and CapacityBytes counts all three.
  struct Record {
    double a = 0.0, b = 0.0;
  };
  constexpr std::size_t kSlots = 1000;
  Slab<Record> slab;
  slab.Reserve(kSlots);
  const std::size_t bytes = slab.CapacityBytes();
  for (std::size_t i = 0; i < kSlots; ++i) slab.Alloc();
  EXPECT_EQ(slab.CapacityBytes(), bytes) << "Reserve(n) should pre-size";
  EXPECT_GE(bytes, kSlots * (sizeof(Record) + 5));
}

}  // namespace
}  // namespace nomloc::common
