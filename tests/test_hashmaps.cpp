// Tests for the hash module: the two lock-based maps share a map API; the
// split-ordered set shares the Set API with the list module.  Resizing under
// concurrency and hash-collision handling get dedicated coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/huge_pages.hpp"
#include "core/rng.hpp"
#include "hash/coarse_hash_map.hpp"
#include "hash/split_ordered_set.hpp"
#include "hash/striped_hash_map.hpp"
#include "hash/swiss_hash_map.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "test_util.hpp"

namespace ccds {

// Reads a SwissHashMap's current group array (the map befriends it).
struct SwissHashMapAccess {
  template <typename M>
  static std::size_t group_bytes() {
    return sizeof(typename M::Group);
  }

  template <typename M>
  static std::uintptr_t groups_address(const M& m) {
    auto guard = m.acquire_guard();
    return reinterpret_cast<std::uintptr_t>(guard.protect(0, m.table_)->groups);
  }

  // Every group of the current table is unlocked, untouched and tag-empty.
  template <typename M>
  static bool all_groups_empty(const M& m) {
    auto guard = m.acquire_guard();
    const auto* t = guard.protect(0, m.table_);
    for (std::size_t i = 0; i < t->group_count; ++i) {
      const auto& h = t->groups[i].hdr;
      // relaxed: the map is quiescent.
      if (h.version.load(std::memory_order_relaxed) != 0 ||
          h.tags[0].load(std::memory_order_relaxed) != 0 ||
          h.tags[1].load(std::memory_order_relaxed) != 0) {
        return false;
      }
    }
    return true;
  }
};

namespace {

// ---------- typed map tests ----------

template <typename M>
class HashMapTest : public ::testing::Test {};

using HashMapTypes =
    ::testing::Types<CoarseHashMap<std::uint64_t, std::uint64_t>,
                     StripedHashMap<std::uint64_t, std::uint64_t>,
                     SwissHashMap<std::uint64_t, std::uint64_t>,
                     SwissHashMap<std::uint64_t, std::uint64_t,
                                  MixHash<std::uint64_t>, HazardDomain>>;
TYPED_TEST_SUITE(HashMapTest, HashMapTypes);

TYPED_TEST(HashMapTest, BasicMapSemantics) {
  TypeParam m;
  EXPECT_FALSE(m.get(1).has_value());
  EXPECT_TRUE(m.insert(1, 100));
  EXPECT_EQ(m.get(1).value(), 100u);
  EXPECT_FALSE(m.insert(1, 200));  // overwrite, not a new entry
  EXPECT_EQ(m.get(1).value(), 200u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 0u);
}

TYPED_TEST(HashMapTest, GrowsThroughResizes) {
  TypeParam m(16);
  constexpr std::uint64_t kCount = 20000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(m.insert(i, i * 3));
  }
  EXPECT_EQ(m.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(m.get(i).value(), i * 3) << "lost key " << i;
  }
}

TYPED_TEST(HashMapTest, ConcurrentDisjointKeys) {
  TypeParam m(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!m.insert(base + i, base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      auto v = m.get(base + i);
      if (!v || *v != base + i) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!m.erase(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(m.size(), kThreads * kPerThread / 2);
}

TYPED_TEST(HashMapTest, ConcurrentReadersSeeStableValues) {
  TypeParam m(64);
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert(i, i);
  std::atomic<bool> bad{false};
  test::run_threads(6, [&](std::size_t idx) {
    if (idx < 2) {  // writers churn a disjoint key range
      for (int r = 0; r < 20; ++r) {
        for (std::uint64_t i = 2000; i < 4000; ++i) m.insert(i, i);
        for (std::uint64_t i = 2000; i < 4000; ++i) m.erase(i);
      }
    } else {  // readers check the stable range
      for (int r = 0; r < 20000; ++r) {
        const std::uint64_t k = r % 1000;
        auto v = m.get(k);
        if (!v || *v != k) bad.store(true);
      }
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(StripedHashMap, StripsActuallyResize) {
  StripedHashMap<std::uint64_t, std::uint64_t> m(64);
  const std::size_t before = m.bucket_count();
  for (std::uint64_t i = 0; i < 10000; ++i) m.insert(i, i);
  EXPECT_GT(m.bucket_count(), before);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(m.get(i).value(), i);
  }
}

// ---------- swiss map specifics ----------

TEST(SwissHashMap, GrowsByDoublingAndFinishesRehash) {
  SwissHashMap<std::uint64_t, std::uint64_t> m(16);
  const std::size_t cap0 = m.capacity();
  for (std::uint64_t i = 0; i < 10000; ++i) ASSERT_TRUE(m.insert(i, i + 1));
  EXPECT_GT(m.capacity(), cap0);
  // Writers finish migrations cooperatively; after this quiescent point the
  // sequential story must be fully consistent.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(m.get(i).value(), i + 1) << "lost key " << i << " in rehash";
  }
  while (m.rehash_in_progress()) {
    m.insert(0, 1);  // any write helps drain the old table
  }
  EXPECT_EQ(m.size(), 10000u);
}

TEST(SwissHashMap, ExplicitGrowPreservesContents) {
  SwissHashMap<std::uint64_t, std::uint64_t> m(64);
  for (std::uint64_t i = 0; i < 40; ++i) m.insert(i, ~i);
  const std::size_t cap = m.capacity();
  m.grow();
  // Reads must be correct mid-migration (old table still partially live).
  for (std::uint64_t i = 0; i < 40; ++i) ASSERT_EQ(m.get(i).value(), ~i);
  for (std::uint64_t i = 0; i < 40; ++i) m.insert(i + 100, i);
  EXPECT_GE(m.capacity(), 2 * cap);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ASSERT_EQ(m.get(i).value(), ~i);
    ASSERT_EQ(m.get(i + 100).value(), i);
  }
}

// Collapse every key into group 0 (hash low bits zero): probe chains spill
// across consecutive groups, exercising the first-empty termination rule,
// tombstone reuse, and cross-group migration.
struct GroupCollidingHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return k << 57;  // tag varies with k & 0x7f; group index always 0
  }
};

TEST(SwissHashMap, ProbeChainsSurviveTombstonesAndGrowth) {
  SwissHashMap<std::uint64_t, std::uint64_t, GroupCollidingHash> m(64);
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_TRUE(m.insert(i, i * 7));
  // Punch tombstones through the middle of the chain...
  for (std::uint64_t i = 30; i < 90; ++i) ASSERT_TRUE(m.erase(i));
  // ...keys beyond the tombstones must still be reachable.
  for (std::uint64_t i = 90; i < 120; ++i) ASSERT_EQ(m.get(i).value(), i * 7);
  for (std::uint64_t i = 30; i < 90; ++i) ASSERT_FALSE(m.contains(i));
  // Reinsert over the tombstones (must not duplicate), then grow: the
  // rehash drops tombstones wholesale and rebuilds the chain.
  for (std::uint64_t i = 30; i < 90; ++i) ASSERT_TRUE(m.insert(i, i * 9));
  m.grow();
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.get(i).value(), i < 30 || i >= 90 ? i * 7 : i * 9);
  }
  EXPECT_EQ(m.size(), 120u);
}

TEST(SwissHashMap, ReadersNeverSeeTornValues) {
  // Seqlock runtime check: one key toggles between two bit patterns; any
  // other observed value is a torn read.
  SwissHashMap<std::uint64_t, std::uint64_t> m(64);
  constexpr std::uint64_t kA = 0xaaaaaaaaaaaaaaaaull;
  constexpr std::uint64_t kB = 0x5555555555555555ull;
  m.insert(7, kA);
  std::atomic<bool> torn{false};
  test::run_threads(6, [&](std::size_t idx) {
    if (idx < 2) {
      for (int r = 0; r < 30000; ++r) m.insert(7, (r & 1) ? kA : kB);
    } else {
      for (int r = 0; r < 60000; ++r) {
        const auto v = m.get(7);
        if (!v || (*v != kA && *v != kB)) torn.store(true);
      }
    }
  });
  EXPECT_FALSE(torn.load());
}

TEST(SwissHashMap, ConcurrentChurnAcrossRehashes) {
  // Mixed insert/erase/get across threads on a tiny initial table so the
  // run is dominated by cooperative migrations.
  SwissHashMap<std::uint64_t, std::uint64_t> m(16);
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kPer = 3000;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPer;
    for (std::uint64_t i = 0; i < kPer; ++i) {
      if (!m.insert(base + i, base + i + 1)) failures.fetch_add(1);
      if (i >= 10 && (i - 10) % 3 != 2) {  // not erased by this thread below
        const auto v = m.get(base + i - 10);
        if (!v || *v != base + i - 9) failures.fetch_add(1);
      }
      if (i % 3 == 2 && !m.erase(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(m.size(), kThreads * (kPer - kPer / 3));
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPer; ++i) {
      const bool erased = i % 3 == 2;
      ASSERT_EQ(m.contains(t * kPer + i), !erased);
    }
  }
}

// Bytes of the current table's group array.
template <typename M>
std::size_t group_array_bytes(const M& m) {
  return m.capacity() / kGroupSlots * SwissHashMapAccess::group_bytes<M>();
}

TEST(SwissHashMap, GrowsAcrossTheHugePageThresholdUnderConcurrency) {
  // Start on a plain new[] array and grow, under concurrent writers and
  // seqlock readers, into tables large enough for huge-page arrays; every
  // rehash in between retires a table of one kind or the other.
  using Map = SwissHashMap<std::uint64_t, std::uint64_t>;
  Map m(16);
  ASSERT_LT(group_array_bytes(m), kHugePageSize);
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kReaders = 2;
  constexpr std::uint64_t kPer = 25000;
  const auto key = [](std::size_t w, std::uint64_t i) { return w * kPer + i; };
  const auto val = [](std::uint64_t k) { return k * 2 + 1; };
  std::atomic<std::uint64_t> published[kWriters] = {};
  std::atomic<std::size_t> writers_done{0};
  std::atomic<int> failures{0};
  test::run_threads(kWriters + kReaders, [&](std::size_t idx) {
    if (idx < kWriters) {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        if (!m.insert(key(idx, i), val(key(idx, i)))) failures.fetch_add(1);
        published[idx].store(i + 1, std::memory_order_release);
      }
      writers_done.fetch_add(1);
      return;
    }
    Xoshiro256 rng(idx);
    while (writers_done.load() < kWriters) {
      const std::size_t w = rng.next_below(kWriters);
      const std::uint64_t n = published[w].load(std::memory_order_acquire);
      if (n == 0) continue;
      const std::uint64_t k = key(w, rng.next_below(n));
      const auto got = m.get(k);
      if (!got || *got != val(k)) failures.fetch_add(1);
      if (m.contains(kWriters * kPer + k)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  while (m.rehash_in_progress()) m.insert(key(0, 0), val(key(0, 0)));
  EXPECT_EQ(m.size(), kWriters * kPer);
  EXPECT_GE(group_array_bytes(m), kHugePageSize);
  EXPECT_EQ(SwissHashMapAccess::groups_address(m) % kHugePageSize, 0u);
  for (std::size_t w = 0; w < kWriters; ++w) {
    for (std::uint64_t i = 0; i < kPer; ++i) {
      const auto got = m.get(key(w, i));
      ASSERT_TRUE(got.has_value()) << "lost key " << key(w, i);
      ASSERT_EQ(*got, val(key(w, i)));
    }
  }
}

TEST(SwissHashMap, FreshLargeTableIsHugePageAlignedAndEmpty) {
  using Map = SwissHashMap<std::uint64_t, std::uint64_t>;
  Map m(std::size_t{1} << 18);
  ASSERT_GE(group_array_bytes(m), kHugePageSize);
  EXPECT_EQ(SwissHashMapAccess::groups_address(m) % kHugePageSize, 0u);
  EXPECT_TRUE(SwissHashMapAccess::all_groups_empty(m));
  EXPECT_EQ(m.size(), 0u);
  for (std::uint64_t k = 0; k < 4096; ++k) ASSERT_FALSE(m.contains(k));
  for (std::uint64_t k = 0; k < 4096; ++k) ASSERT_TRUE(m.insert(k, ~k));
  for (std::uint64_t k = 0; k < 4096; ++k) ASSERT_EQ(m.get(k).value(), ~k);
  EXPECT_EQ(m.size(), 4096u);
}

TEST(HashMapStringKeys, WorksWithNonTrivialKeys) {
  StripedHashMap<std::string, int, MixHash<std::string>> m;
  EXPECT_TRUE(m.insert("alpha", 1));
  EXPECT_TRUE(m.insert("beta", 2));
  EXPECT_FALSE(m.insert("alpha", 10));
  EXPECT_EQ(m.get("alpha").value(), 10);
  EXPECT_TRUE(m.erase("beta"));
  EXPECT_FALSE(m.contains("beta"));
}

// ---------- split-ordered set ----------

template <typename S>
class SplitOrderedTest : public ::testing::Test {};

using SplitOrderedTypes =
    ::testing::Types<SplitOrderedHashSet<std::uint64_t, MixHash<std::uint64_t>,
                                         HazardDomain>,
                     SplitOrderedHashSet<std::uint64_t, MixHash<std::uint64_t>,
                                         EpochDomain>>;
TYPED_TEST_SUITE(SplitOrderedTest, SplitOrderedTypes);

TYPED_TEST(SplitOrderedTest, BasicSetSemantics) {
  TypeParam s;
  EXPECT_FALSE(s.contains(42));
  EXPECT_TRUE(s.insert(42));
  EXPECT_FALSE(s.insert(42));
  EXPECT_TRUE(s.contains(42));
  EXPECT_TRUE(s.remove(42));
  EXPECT_FALSE(s.remove(42));
  EXPECT_FALSE(s.contains(42));
}

TYPED_TEST(SplitOrderedTest, GrowsWithoutLosingKeys) {
  TypeParam s;
  constexpr std::uint64_t kCount = 50000;
  const std::size_t buckets_before = s.bucket_count();
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(s.insert(i));
  EXPECT_GT(s.bucket_count(), buckets_before);  // table doubled repeatedly
  EXPECT_EQ(s.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(s.contains(i)) << "lost key " << i << " across resizes";
  }
  EXPECT_FALSE(s.contains(kCount + 1));
}

TYPED_TEST(SplitOrderedTest, RemoveHalfKeepHalf) {
  TypeParam s;
  for (std::uint64_t i = 0; i < 10000; ++i) ASSERT_TRUE(s.insert(i));
  for (std::uint64_t i = 0; i < 10000; i += 2) ASSERT_TRUE(s.remove(i));
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1);
  }
  EXPECT_EQ(s.size(), 5000u);
}

TYPED_TEST(SplitOrderedTest, ConcurrentDisjointRanges) {
  TypeParam s;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.contains(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s.size(), kThreads * kPerThread / 2);
}

TYPED_TEST(SplitOrderedTest, SharedRangeConservation) {
  TypeParam s;
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kKeys = 64;
  constexpr int kOps = 15000;
  std::vector<std::vector<std::int64_t>> net(
      kThreads, std::vector<std::int64_t>(kKeys, 0));

  test::run_threads(kThreads, [&](std::size_t idx) {
    auto& mine = net[idx];
    std::uint64_t state = idx * 104729 + 17;
    for (int i = 0; i < kOps; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t key = (state >> 33) % kKeys;
      if ((state >> 13) & 1) {
        if (s.insert(key)) mine[key] += 1;
      } else {
        if (s.remove(key)) mine[key] -= 1;
      }
    }
  });

  for (std::uint64_t k = 0; k < kKeys; ++k) {
    std::int64_t total = 0;
    for (std::size_t t = 0; t < kThreads; ++t) total += net[t][k];
    ASSERT_GE(total, 0);
    ASSERT_LE(total, 1);
    EXPECT_EQ(s.contains(k), total == 1);
  }
}

// Force split-order collisions: a hash that collapses keys into 8 classes,
// exercising the equal-so_key collision-run scan.
struct CollidingHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return mix64(k % 8);
  }
};

TEST(SplitOrderedCollisions, CollidingKeysAllStoredAndDistinct) {
  SplitOrderedHashSet<std::uint64_t, CollidingHash> s;
  for (std::uint64_t i = 0; i < 512; ++i) ASSERT_TRUE(s.insert(i));
  for (std::uint64_t i = 0; i < 512; ++i) ASSERT_FALSE(s.insert(i));
  for (std::uint64_t i = 0; i < 512; ++i) ASSERT_TRUE(s.contains(i));
  for (std::uint64_t i = 0; i < 512; i += 3) ASSERT_TRUE(s.remove(i));
  for (std::uint64_t i = 0; i < 512; ++i) {
    ASSERT_EQ(s.contains(i), (i % 3) != 0);
  }
}

TEST(SplitOrderedCollisions, ConcurrentCollidingChurn) {
  SplitOrderedHashSet<std::uint64_t, CollidingHash> s;
  std::atomic<int> failures{0};
  test::run_threads(6, [&](std::size_t idx) {
    const std::uint64_t base = idx * 1000;
    for (int round = 0; round < 30; ++round) {
      for (std::uint64_t i = 0; i < 50; ++i) {
        if (!s.insert(base + i)) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < 50; ++i) {
        if (!s.contains(base + i)) failures.fetch_add(1);
      }
      for (std::uint64_t i = 0; i < 50; ++i) {
        if (!s.remove(base + i)) failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace ccds
