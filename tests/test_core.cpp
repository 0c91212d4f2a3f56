// Unit tests for the core module: padding, RNG, thread registry, barrier,
// and hash/bit utilities.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "core/arch.hpp"
#include "core/backoff.hpp"
#include "core/barrier.hpp"
#include "core/group_probe.hpp"
#include "core/hash.hpp"
#include "core/padded.hpp"
#include "core/rng.hpp"
#include "core/thread_registry.hpp"
#include "test_util.hpp"

namespace ccds {
namespace {

// ---------- padding ----------

TEST(Padded, OccupiesWholeCacheLines) {
  EXPECT_EQ(sizeof(Padded<char>), kCacheLineSize);
  EXPECT_EQ(sizeof(Padded<std::uint64_t>), kCacheLineSize);
  EXPECT_GE(sizeof(Padded<char[200]>), 2 * kCacheLineSize);
  EXPECT_EQ(alignof(Padded<char>), kCacheLineSize);
}

TEST(Padded, ArrayElementsDoNotShareLines) {
  Padded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<std::uintptr_t>(&arr[i].value);
    auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1].value);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

TEST(Padded, AccessorsWork) {
  Padded<int> p(41);
  EXPECT_EQ(*p, 41);
  *p += 1;
  EXPECT_EQ(p.value, 42);
}

// ---------- rng ----------

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);  // all residues hit in 1000 draws, w.h.p.
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.05);  // crude uniformity check
}

TEST(Rng, ThreadRngsAreIndependent) {
  std::vector<std::uint64_t> firsts(4);
  test::run_threads(4, [&](std::size_t i) { firsts[i] = thread_rng().next(); });
  std::set<std::uint64_t> uniq(firsts.begin(), firsts.end());
  EXPECT_EQ(uniq.size(), 4u);
}

// ---------- backoff ----------

TEST(Backoff, SaturatesAfterEnoughSpins) {
  Backoff b(4, 64);
  EXPECT_FALSE(b.saturated());
  for (int i = 0; i < 10; ++i) b.spin();
  EXPECT_TRUE(b.saturated());
  b.reset();
  EXPECT_FALSE(b.saturated());
}

// ---------- thread registry ----------

TEST(ThreadRegistry, IdsAreDenseAndUnique) {
  // Ids must be unique among threads that hold them *simultaneously*: a
  // second barrier keeps every thread alive (id acquired) until all have
  // recorded theirs.  (On a single-core host, threads otherwise run one
  // after another and legitimately recycle the same slot.)
  constexpr std::size_t kThreads = 8;
  std::vector<std::size_t> ids(kThreads);
  SpinBarrier hold(kThreads);
  test::run_threads(kThreads, [&](std::size_t i) {
    ids[i] = thread_id();
    hold.arrive_and_wait();
  });
  std::set<std::size_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), kThreads);
  for (auto id : ids) EXPECT_LT(id, kMaxThreads);
}

TEST(ThreadRegistry, IdStableWithinThread) {
  test::run_threads(4, [&](std::size_t) {
    const std::size_t first = thread_id();
    for (int i = 0; i < 100; ++i) EXPECT_EQ(thread_id(), first);
  });
}

TEST(ThreadRegistry, IdsAreRecycledAfterExit) {
  std::set<std::size_t> round1, round2;
  // Sequential short-lived threads should be able to reuse slots: after many
  // more rounds than kMaxThreads, ids must repeat.
  for (int i = 0; i < 200; ++i) {
    std::thread([&] {
      if (i < 100) {
        round1.insert(thread_id());
      } else {
        round2.insert(thread_id());
      }
    }).join();
  }
  EXPECT_LT(round1.size(), 100u);  // recycling happened
  EXPECT_LT(round2.size(), 100u);
}

// The registry's limit: with kMaxThreads threads holding ids, one more
// registration aborts with a diagnostic instead of handing out an id that
// would index past every per-thread slot array.  Starts kMaxThreads + 1
// threads, all inside the death statement's child process.
TEST(ThreadRegistryDeathTest, OneThreadPastTheLimitAbortsWithDiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        std::latch release(1);
        std::atomic<std::size_t> holding{0};
        std::vector<std::thread> holders;
        for (std::size_t i = 0; i < kMaxThreads; ++i) {
          holders.emplace_back([&] {
            (void)thread_id();
            holding.fetch_add(1);
            release.wait();
          });
        }
        while (holding.load() < kMaxThreads) std::this_thread::yield();
        std::thread([] { (void)thread_id(); }).join();
        release.count_down();
        for (auto& t : holders) t.join();
      },
      "thread registry exhausted");
}

// ---------- barrier ----------

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr std::size_t kThreads = 6;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> in_phase{0};
  std::atomic<bool> failed{false};

  test::run_threads(kThreads, [&](std::size_t) {
    for (int p = 0; p < kPhases; ++p) {
      in_phase.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      // Between the two barriers every thread must have incremented.
      if (in_phase.load(std::memory_order_relaxed) <
          static_cast<int>(kThreads) * (p + 1)) {
        failed.store(true, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();
    }
  });
  EXPECT_FALSE(failed.load());
}

// ---------- hash utilities ----------

TEST(Hash, Mix64ChangesEveryInput) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);  // injective on this range (it's bijective)
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total_flips += __builtin_popcountll(mix64(0x1234567890abcdefull) ^
                                        mix64(0x1234567890abcdefull ^
                                              (1ull << bit)));
  }
  const double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Hash, ReverseBitsRoundTrips) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next();
    EXPECT_EQ(reverse_bits64(reverse_bits64(v)), v);
  }
}

TEST(Hash, ReverseBitsKnownValues) {
  EXPECT_EQ(reverse_bits64(0), 0ull);
  EXPECT_EQ(reverse_bits64(1), 1ull << 63);
  EXPECT_EQ(reverse_bits64(~0ull), ~0ull);
  EXPECT_EQ(reverse_bits64(0x8000000000000000ull), 1ull);
}

TEST(Hash, Mix64IsInvertible) {
  // mix64 is a bijection: xorshift-by->=32 is an involution and both
  // multipliers are odd, so each step inverts exactly.  Applying the known
  // inverse (modular inverses of the multipliers, same xorshifts) must
  // recover every input — which also proves mix64 never collides.
  const auto unmix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0x9cb4b2f8129337dbull;  // inverse of 0xc4ceb9fe1a85ec53
    x ^= x >> 33;
    x *= 0x4f74430c22a54005ull;  // inverse of 0xff51afd7ed558ccd
    x ^= x >> 33;
    return x;
  };
  Xoshiro256 rng(17);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next();
    ASSERT_EQ(unmix(mix64(v)), v);
  }
  EXPECT_EQ(unmix(mix64(0)), 0ull);
  EXPECT_EQ(unmix(mix64(~0ull)), ~0ull);
}

TEST(Hash, Mix64AvalancheMatrix) {
  // Stronger than the single-point test above: for EVERY (input bit, output
  // bit) pair, flipping the input bit must flip the output bit with
  // probability near 1/2 across random bases.  Catches finalizers that
  // avalanche on average but leave individual lanes correlated.
  constexpr int kSamples = 1000;
  Xoshiro256 rng(29);
  std::vector<std::uint64_t> bases(kSamples);
  for (auto& b : bases) b = rng.next();
  for (int in = 0; in < 64; ++in) {
    std::array<int, 64> flips{};
    for (const std::uint64_t b : bases) {
      const std::uint64_t d = mix64(b) ^ mix64(b ^ (1ull << in));
      for (int out = 0; out < 64; ++out) flips[out] += (d >> out) & 1;
    }
    for (int out = 0; out < 64; ++out) {
      const double p = static_cast<double>(flips[out]) / kSamples;
      ASSERT_GT(p, 0.40) << "input bit " << in << " barely reaches output bit "
                         << out;
      ASSERT_LT(p, 0.60) << "input bit " << in << " over-drives output bit "
                         << out;
    }
  }
}

TEST(Hash, ReverseBitsReversesEachBitPosition) {
  // Exhaustive per-position check: bit i must land exactly at bit 63-i.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(reverse_bits64(1ull << i), 1ull << (63 - i));
  }
  // And round-trip on structured values the random test can miss.
  EXPECT_EQ(reverse_bits64(reverse_bits64(0x0123456789abcdefull)),
            0x0123456789abcdefull);
  EXPECT_EQ(reverse_bits64(0x00000000ffffffffull), 0xffffffff00000000ull);
}

TEST(Hash, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1ull);
  EXPECT_EQ(next_pow2(1), 1ull);
  EXPECT_EQ(next_pow2(2), 2ull);
  EXPECT_EQ(next_pow2(3), 4ull);
  EXPECT_EQ(next_pow2(4), 4ull);
  EXPECT_EQ(next_pow2(1000), 1024ull);
  EXPECT_EQ(next_pow2(1ull << 40), 1ull << 40);
  EXPECT_EQ(next_pow2((1ull << 40) + 1), 1ull << 41);
}

// ---------- group probing (SIMD / SWAR tag search) ----------

// Pack 16 tag bytes into the two words the probe functions take (byte s of
// the pair is slot s; slots 0-7 in word 0).
std::pair<std::uint64_t, std::uint64_t> pack_tags(
    const std::array<std::uint8_t, kGroupSlots>& tags) {
  std::uint64_t w[2] = {0, 0};
  for (int s = 0; s < kGroupSlots; ++s) {
    w[s / 8] |= static_cast<std::uint64_t>(tags[s]) << (8 * (s % 8));
  }
  return {w[0], w[1]};
}

TEST(GroupProbe, MatchesExactSlots) {
  std::array<std::uint8_t, kGroupSlots> tags{};
  tags.fill(0x90);
  tags[0] = 0xa5;
  tags[7] = 0xa5;   // word-0 high byte
  tags[8] = 0xa5;   // word-1 low byte
  tags[15] = 0xa5;  // last slot
  const auto [w0, w1] = pack_tags(tags);
  EXPECT_EQ(group_match_tag(w0, w1, 0xa5), 0b1000000110000001u);
  EXPECT_EQ(group_match_tag(w0, w1, 0x90), 0b0111111001111110u);
  EXPECT_EQ(group_match_tag(w0, w1, 0x91), 0u);
  EXPECT_EQ(group_match_empty(w0, w1), 0u);
  EXPECT_EQ(group_match_free(w0, w1), 0u);
}

TEST(GroupProbe, EmptyTombAndFreeAreDistinct) {
  std::array<std::uint8_t, kGroupSlots> tags{};
  tags.fill(0xc3);
  tags[2] = kTagEmpty;
  tags[5] = kTagTomb;
  tags[11] = kTagEmpty;
  tags[12] = kTagTomb;
  const auto [w0, w1] = pack_tags(tags);
  EXPECT_EQ(group_match_empty(w0, w1), (1u << 2) | (1u << 11));
  EXPECT_EQ(group_match_tag(w0, w1, kTagTomb), (1u << 5) | (1u << 12));
  EXPECT_EQ(group_match_free(w0, w1),
            (1u << 2) | (1u << 5) | (1u << 11) | (1u << 12));
}

TEST(GroupProbe, EveryslotEveryTagExhaustive) {
  // One full sweep: each slot position crossed with a spread of tag values,
  // rest of the group filled with a non-matching full tag.  Exercises every
  // byte lane of whichever backend (SSE2/NEON/SWAR) this build selected.
  const std::uint8_t probes[] = {0x80, 0x81, 0x90, 0xa5, 0xc3, 0xfe, 0xff};
  for (int s = 0; s < kGroupSlots; ++s) {
    for (const std::uint8_t t : probes) {
      std::array<std::uint8_t, kGroupSlots> tags{};
      tags.fill(t == 0xee ? 0xdd : 0xee);
      tags[s] = t;
      const auto [w0, w1] = pack_tags(tags);
      ASSERT_EQ(group_match_tag(w0, w1, t), 1u << s)
          << "slot " << s << " tag " << int(t);
      ASSERT_EQ(group_match_empty(w0, w1), 0u);
      ASSERT_EQ(group_match_free(w0, w1), 0u);
    }
  }
}

TEST(GroupProbe, SwarZeroByteDetectorIsExact) {
  // The subtract-borrow zero-byte trick admits false positives (a 0x01 byte
  // neighbouring a genuine zero); the detector group_probe uses must be
  // exact.  Walk every byte value through every lane with the adversarial
  // 0x01/0x00 adjacency included.
  for (int lane = 0; lane < 8; ++lane) {
    for (int v = 0; v < 256; ++v) {
      const std::uint64_t w = (~0ull & ~(0xffull << (8 * lane))) |
                              (static_cast<std::uint64_t>(v) << (8 * lane));
      const std::uint64_t zb = detail::zero_bytes(w);
      ASSERT_EQ(zb != 0, v == 0) << "lane " << lane << " value " << v;
    }
  }
  // 0x01 byte directly above a 0x00 byte: the classic false-positive shape.
  EXPECT_EQ(detail::zero_bytes(0xffffffffffff0100ull),
            0x0000000000000080ull);  // only byte 0 is zero
  EXPECT_EQ(detail::msb_to_bits(detail::zero_bytes(0xffffffffffff0100ull)),
            1u);
}

TEST(GroupProbe, MaskIteration) {
  std::uint32_t m = 0b1000000000100100;
  EXPECT_EQ(group_first_slot(m), 2);
  m = group_clear_lowest(m);
  EXPECT_EQ(group_first_slot(m), 5);
  m = group_clear_lowest(m);
  EXPECT_EQ(group_first_slot(m), 15);
  m = group_clear_lowest(m);
  EXPECT_EQ(m, 0u);
}

TEST(GroupProbe, TagOfHashIsAlwaysFull) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) {
    const std::uint8_t t = tag_of_hash(rng.next());
    ASSERT_GE(t, 0x80);  // high bit set: never collides with empty/tomb
  }
  EXPECT_EQ(tag_of_hash(0), 0x80);
  EXPECT_EQ(tag_of_hash(~0ull), 0xff);
}

}  // namespace
}  // namespace ccds
