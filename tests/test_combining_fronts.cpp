// Tests for the combining fronts (CombiningQueue / CombiningStack /
// CombiningCounter / BatchedSkipListSet / BatchedMap): sequential semantics,
// concurrent conservation, batch atomicity, and engine interchangeability —
// every front must behave identically on EVERY enrolled engine.  The engine
// lists below come from the sync/engines.hpp X-macro, so a newly enrolled
// engine is exercised by this whole file with no edit here.
//
// A two-node topology override is installed for the entire binary so the
// hierarchical engine (HSynch) actually runs multiple per-node lists even
// on a single-socket CI host; the flat engines ignore it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "counter/combining_counter.hpp"
#include "pool/stealing_pool.hpp"
#include "queue/combining_queue.hpp"
#include "skiplist/batched_map.hpp"
#include "skiplist/batched_skiplist.hpp"
#include "stack/combining_stack.hpp"
#include "core/topology.hpp"
#include "sync/engines.hpp"
#include "test_util.hpp"

namespace ccds {
namespace {

std::size_t two_node_map(std::size_t tid) { return tid % 2; }

// Deterministic 2-node topology for the whole binary: HSynch sizes its
// per-node lists at construction, so this must be live before any engine
// is built (gtest environments bracket every test).
class TwoNodeTopologyEnv : public ::testing::Environment {
 public:
  void SetUp() override { override_.emplace(2, &two_node_map); }
  void TearDown() override { override_.reset(); }

 private:
  std::optional<topology::ScopedOverride> override_;
};

::testing::Environment* const kTwoNodeTopologyEnv =
    ::testing::AddGlobalTestEnvironment(new TwoNodeTopologyEnv);

// ---------------------------------------------------------------------------
// Typed fixtures: each front is instantiated with every enrolled engine.
// ---------------------------------------------------------------------------

template <typename Q>
class CombiningQueueTest : public ::testing::Test {};
#define CCDS_WRAP_QUEUE(E) CombiningQueue<std::uint64_t, E>
using QueueTypes = ::testing::Types<CCDS_COMBINER_ENGINE_LIST(CCDS_WRAP_QUEUE)>;
#undef CCDS_WRAP_QUEUE
TYPED_TEST_SUITE(CombiningQueueTest, QueueTypes);

TYPED_TEST(CombiningQueueTest, FifoOrder) {
  TypeParam q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.try_dequeue(), std::nullopt);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i);
  EXPECT_EQ(q.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto v = q.try_dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(CombiningQueueTest, ConcurrentConservation) {
  TypeParam q;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (int i = 0; i < kPerThread; ++i) {
      q.enqueue(static_cast<std::uint64_t>(idx) * kPerThread + i);
      if (auto v = q.try_dequeue()) got[idx].push_back(*v);
    }
  });
  // Drain the residue left by empty-queue dequeues racing enqueues.
  std::size_t residue = 0;
  while (q.try_dequeue()) ++residue;
  std::set<std::uint64_t> uniq;
  std::size_t total = residue;
  for (auto& v : got) {
    total += v.size();
    uniq.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(uniq.size(), total - residue) << "duplicate dequeue";
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(CombiningQueueTest, BatchExecutesInOrderAtomically) {
  TypeParam q;
  using Op = QueueOp<std::uint64_t>;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  test::run_threads(kThreads, [&](std::size_t) {
    for (int i = 0; i < kIters; ++i) {
      // Enqueue two, dequeue two, all in one request: because the batch is
      // atomic and per-batch net queue delta is zero, the two dequeues must
      // return SOME two values (queue holds ≥2 entries once ours land).
      std::vector<Op> ops;
      ops.push_back(Op::enqueue(1));
      ops.push_back(Op::enqueue(2));
      ops.push_back(Op::dequeue());
      ops.push_back(Op::dequeue());
      q.apply_batch(std::span<Op>(ops));
      ASSERT_TRUE(ops[2].result.has_value());
      ASSERT_TRUE(ops[3].result.has_value());
    }
  });
  EXPECT_TRUE(q.empty());
}

template <typename S>
class CombiningStackTest : public ::testing::Test {};
#define CCDS_WRAP_STACK(E) CombiningStack<std::uint64_t, E>
using StackTypes = ::testing::Types<CCDS_COMBINER_ENGINE_LIST(CCDS_WRAP_STACK)>;
#undef CCDS_WRAP_STACK
TYPED_TEST_SUITE(CombiningStackTest, StackTypes);

TYPED_TEST(CombiningStackTest, LifoOrder) {
  TypeParam s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.try_pop(), std::nullopt);
  for (std::uint64_t i = 0; i < 100; ++i) s.push(i);
  EXPECT_EQ(s.size(), 100u);
  for (std::uint64_t i = 100; i-- > 0;) {
    auto v = s.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(s.empty());
}

TYPED_TEST(CombiningStackTest, ConcurrentConservation) {
  TypeParam s;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (int i = 0; i < kPerThread; ++i) {
      s.push(static_cast<std::uint64_t>(idx) * kPerThread + i);
      if (auto v = s.try_pop()) got[idx].push_back(*v);
    }
  });
  std::size_t residue = 0;
  while (s.try_pop()) ++residue;
  std::set<std::uint64_t> uniq;
  std::size_t total = residue;
  for (auto& v : got) {
    total += v.size();
    uniq.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(uniq.size(), total - residue) << "duplicate pop";
}

TYPED_TEST(CombiningStackTest, BatchPushPopRoundTrip) {
  TypeParam s;
  using Op = StackOp<std::uint64_t>;
  std::vector<Op> ops;
  ops.push_back(Op::push(10));
  ops.push_back(Op::push(20));
  ops.push_back(Op::pop());  // sees 20 (LIFO within the atomic batch)
  ops.push_back(Op::pop());  // sees 10
  ops.push_back(Op::pop());  // stack empty again
  s.apply_batch(std::span<Op>(ops));
  ASSERT_TRUE(ops[2].result.has_value());
  EXPECT_EQ(*ops[2].result, 20u);
  ASSERT_TRUE(ops[3].result.has_value());
  EXPECT_EQ(*ops[3].result, 10u);
  EXPECT_EQ(ops[4].result, std::nullopt);
  EXPECT_TRUE(s.empty());
}

template <typename C>
class CombiningCounterTest : public ::testing::Test {};
#define CCDS_WRAP_COUNTER(E) CombiningCounter<E>
using CounterTypes =
    ::testing::Types<CCDS_COMBINER_ENGINE_LIST(CCDS_WRAP_COUNTER)>;
#undef CCDS_WRAP_COUNTER
TYPED_TEST_SUITE(CombiningCounterTest, CounterTypes);

TYPED_TEST(CombiningCounterTest, UniquePriorsUnderContention) {
  TypeParam c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::vector<std::uint64_t>> priors(kThreads);
  test::run_threads(kThreads, [&](std::size_t idx) {
    priors[idx].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) priors[idx].push_back(c.fetch_add(1));
  });
  std::set<std::uint64_t> uniq;
  for (auto& v : priors) uniq.insert(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TYPED_TEST(CombiningCounterTest, BatchIsAtomic) {
  // Batch {read, add 10, read}: the two reads must differ by exactly the
  // batch's own delta — the witness that no foreign add interleaved.
  TypeParam c;
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  test::run_threads(kThreads, [&](std::size_t) {
    for (int i = 0; i < kIters; ++i) {
      CounterOp ops[3] = {CounterOp::read(), CounterOp::add(10),
                          CounterOp::read()};
      c.apply_batch(std::span<CounterOp>(ops));
      ASSERT_EQ(ops[1].prior, ops[0].prior);
      ASSERT_EQ(ops[2].prior, ops[0].prior + 10);
    }
  });
  EXPECT_EQ(c.load(), static_cast<std::uint64_t>(kThreads) * kIters * 10);
}

TYPED_TEST(CombiningCounterTest, InitialValue) {
  TypeParam c(100);
  EXPECT_EQ(c.load(), 100u);
  EXPECT_EQ(c.fetch_add(5), 100u);
  EXPECT_EQ(c.load(), 105u);
}

// ---------------------------------------------------------------------------
// BatchedSkipListSet: the sorted-batch front, every engine.
// ---------------------------------------------------------------------------

template <typename S>
class BatchedSkipListTest : public ::testing::Test {};
#define CCDS_WRAP_BSET(E) \
  BatchedSkipListSet<std::uint64_t, std::less<std::uint64_t>, E>
using BatchedTypes = ::testing::Types<CCDS_COMBINER_ENGINE_LIST(CCDS_WRAP_BSET)>;
#undef CCDS_WRAP_BSET
TYPED_TEST_SUITE(BatchedSkipListTest, BatchedTypes);

TYPED_TEST(BatchedSkipListTest, BasicSetSemantics) {
  TypeParam s;
  EXPECT_FALSE(s.contains(10));
  EXPECT_TRUE(s.insert(10));
  EXPECT_FALSE(s.insert(10));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.remove(10));
  EXPECT_FALSE(s.remove(10));
  EXPECT_FALSE(s.contains(10));
  EXPECT_TRUE(s.insert(10));
  EXPECT_EQ(s.size(), 1u);
}

TYPED_TEST(BatchedSkipListTest, BatchResultsLandInSubmissionOrder) {
  TypeParam s;
  using Op = typename TypeParam::Op;
  // Unsorted keys with duplicates: results must come back in slot order,
  // with last-writer-wins semantics inside the batch.
  std::vector<Op> ops;
  ops.push_back(Op::insert(30));    // 0: inserted
  ops.push_back(Op::insert(10));    // 1: inserted
  ops.push_back(Op::contains(30));  // 2: sees op 0
  ops.push_back(Op::erase(30));     // 3: erases it
  ops.push_back(Op::contains(30));  // 4: gone again
  ops.push_back(Op::insert(30));    // 5: re-inserted
  ops.push_back(Op::insert(20));    // 6: inserted
  ops.push_back(Op::insert(10));    // 7: duplicate of op 1
  s.apply_batch(std::span<Op>(ops));
  EXPECT_TRUE(ops[0].result);
  EXPECT_TRUE(ops[1].result);
  EXPECT_TRUE(ops[2].result);
  EXPECT_TRUE(ops[3].result);
  EXPECT_FALSE(ops[4].result);
  EXPECT_TRUE(ops[5].result);
  EXPECT_TRUE(ops[6].result);
  EXPECT_FALSE(ops[7].result);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(20));
  EXPECT_TRUE(s.contains(30));
}

TYPED_TEST(BatchedSkipListTest, DedupAppliesNetEffectOnly) {
  TypeParam s;
  using Op = typename TypeParam::Op;
  s.reset_stats();
  // Five ops on one key, net effect: absent (insert/erase/insert/erase).
  std::vector<Op> ops;
  ops.push_back(Op::insert(7));
  ops.push_back(Op::erase(7));
  ops.push_back(Op::insert(7));
  ops.push_back(Op::contains(7));
  ops.push_back(Op::erase(7));
  s.apply_batch(std::span<Op>(ops));
  EXPECT_TRUE(ops[0].result);
  EXPECT_TRUE(ops[1].result);
  EXPECT_TRUE(ops[2].result);
  EXPECT_TRUE(ops[3].result);
  EXPECT_TRUE(ops[4].result);
  EXPECT_FALSE(s.contains(7));
  const auto st = s.stats();
  EXPECT_EQ(st.dedup_folded, 4u);  // 5 ops, 1 group
}

TYPED_TEST(BatchedSkipListTest, ConcurrentDisjointBatchesConserve) {
  TypeParam s;
  using Op = typename TypeParam::Op;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 60;
  constexpr int kBatch = 32;
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Op> ops;
      for (int i = 0; i < kBatch; ++i) {
        const std::uint64_t k = (static_cast<std::uint64_t>(r) * kBatch + i) *
                                    kThreads +
                                idx;
        // Even rounds insert fresh keys; odd rounds erase the previous
        // round's (disjoint per thread, so every op must succeed).
        ops.push_back(r % 2 == 0
                          ? Op::insert(k)
                          : Op::erase(k - static_cast<std::uint64_t>(kBatch) *
                                              kThreads));
      }
      s.apply_batch(std::span<Op>(ops));
      for (const Op& op : ops) ASSERT_TRUE(op.result);
    }
  });
  // kRounds is even, so every insert round's block was erased by the odd
  // round right after it: the set ends empty.
  EXPECT_EQ(s.size(), 0u);
  const auto st = s.stats();
  EXPECT_EQ(st.ops, static_cast<std::uint64_t>(kThreads) * kRounds * kBatch);
  EXPECT_GE(st.merged_runs, st.batches);
}

TYPED_TEST(BatchedSkipListTest, BatchesAreAtomicAcrossKeys) {
  // Writer flips a 24-key block between all-present and all-absent, one
  // batch per flip; probers batch-read the whole block and must never see a
  // partial state.
  TypeParam s;
  using Op = typename TypeParam::Op;
  constexpr int kKeys = 24;
  constexpr int kFlips = 400;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  test::run_threads(4, [&](std::size_t idx) {
    if (idx == 0) {
      for (int f = 0; f < kFlips; ++f) {
        std::vector<Op> ops;
        for (int k = 0; k < kKeys; ++k) {
          ops.push_back(f % 2 == 0 ? Op::insert(k) : Op::erase(k));
        }
        s.apply_batch(std::span<Op>(ops));
      }
      done.store(true, std::memory_order_release);
    } else {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<Op> ops;
        for (int k = 0; k < kKeys; ++k) ops.push_back(Op::contains(k));
        s.apply_batch(std::span<Op>(ops));
        int hits = 0;
        for (const Op& op : ops) hits += op.result ? 1 : 0;
        if (hits != 0 && hits != kKeys) torn.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0);
}

TYPED_TEST(BatchedSkipListTest, ShardedPartitionMatchesReference) {
  TypeParam s({1000, 2000, 3000});
  EXPECT_EQ(s.shard_count(), 4u);
  using Op = typename TypeParam::Op;
  std::set<std::uint64_t> reference;
  std::vector<Op> ops;
  for (std::uint64_t i = 0; i < 4000; i += 3) {
    ops.push_back(Op::insert(i));
    reference.insert(i);
  }
  s.apply_batch(std::span<Op>(ops));
  EXPECT_EQ(s.size(), reference.size());
  // Splitter boundary keys land on the right side of their range.
  for (std::uint64_t k : {999u, 1000u, 1001u, 1999u, 2000u, 2999u, 3000u}) {
    EXPECT_EQ(s.contains(k), reference.count(k) == 1) << "key " << k;
  }
  std::vector<Op> erases;
  for (std::uint64_t i = 0; i < 4000; i += 6) {
    erases.push_back(Op::erase(i));
    reference.erase(i);
  }
  s.apply_batch(std::span<Op>(erases));
  for (std::uint64_t k = 0; k < 4000; ++k) {
    ASSERT_EQ(s.contains(k), reference.count(k) == 1) << "key " << k;
  }
}

TYPED_TEST(BatchedSkipListTest, FanOutProducesSameStateAsInline) {
  // Same op stream with and without an attached executor: identical final
  // state, and the executor run must actually have fanned out.
  using Op = typename TypeParam::Op;
  std::vector<std::uint64_t> splits = {250, 500, 750};
  TypeParam inline_set(splits);
  TypeParam fan_set(splits);
  StealingExecutor<> exec(2);
  fan_set.attach_executor(exec);
  fan_set.set_fanout_threshold(8);

  for (int round = 0; round < 6; ++round) {
    std::vector<Op> a, b;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const std::uint64_t k = (i * 37 + round * 13) % 1000;
      auto op = round % 2 == 0 ? Op::insert(k) : Op::erase(k);
      a.push_back(op);
      b.push_back(op);
    }
    inline_set.apply_batch(std::span<Op>(a));
    fan_set.apply_batch(std::span<Op>(b));
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].result, b[i].result) << "slot " << i;
    }
  }
  fan_set.detach_executor();
  EXPECT_EQ(inline_set.size(), fan_set.size());
  const auto st = fan_set.stats();
  EXPECT_GT(st.fanout_batches, 0u);
  EXPECT_GT(st.fanout_subbatches, st.fanout_batches);
  EXPECT_EQ(inline_set.stats().fanout_batches, 0u);
}

// Cross-run order without a scheduler: three runs handed to ONE apply_runs
// call on a bare State, as a combiner would after finding them pending.
// The runs share keys in all 8 shards, so every bucket interleaves ops of
// several runs and several ops per key; last-writer-wins must be exactly
// that of applying the runs one after another, with the fan-out on or off.
TEST(BatchedSkipListState, MergedRunsMatchSequentialApplication) {
  using Map = BatchedMap<std::uint64_t, std::uint64_t, std::less<std::uint64_t>,
                         CcSynch, SkipListLevels::kKeyed>;
  using State = Map::Set::State;
  using Op = Map::Op;
  using Entry = Map::Entry;
  constexpr std::uint64_t kShardWidth = 100;
  constexpr std::uint64_t kKeysPerShard = 6;
  std::vector<Entry> splits;
  for (std::uint64_t s = 1; s < 8; ++s) {
    splits.push_back(Entry{s * kShardWidth, 0});
  }

  for (const bool fan : {false, true}) {
    SCOPED_TRACE(fan ? "fan-out" : "inline");
    State st(splits);
    ASSERT_EQ(st.shards.size(), 8u);
    StealingExecutor<> exec(1);
    if (fan) {
      st.attach(exec);
      st.fanout_threshold = 16;
    }
    std::map<std::uint64_t, std::uint64_t> ref;
    Xoshiro256 rng(7);
    std::uint64_t next_value = 1;
    // Round 0 prefills; rounds 1-2 mix every op kind over the same keys.
    for (int round = 0; round < 3; ++round) {
      std::vector<Op> runs[3];
      for (auto& run : runs) {
        for (int i = 0; i < 120; ++i) {
          const std::uint64_t key = rng.next_below(8) * kShardWidth +
                                    rng.next_below(kKeysPerShard);
          const std::uint64_t kind = round == 0 ? 1 : rng.next_below(4);
          const Entry e{key, next_value++};
          run.push_back(kind == 0   ? Op::contains(Entry{key, 0})
                        : kind == 1 ? Op::assign(e)
                        : kind == 2 ? Op::insert(e)
                                    : Op::erase(e));
        }
      }
      // The reference: each run in turn, each op in submission order.
      std::vector<Op> expect[3];
      for (std::size_t r = 0; r < 3; ++r) {
        expect[r] = runs[r];
        for (Op& op : expect[r]) {
          const auto it = ref.find(op.key.key);
          const bool present = it != ref.end();
          switch (op.kind) {
            case Op::Kind::kContains:
              op.result = present;
              if (present) op.key.value = it->second;
              break;
            case Op::Kind::kInsert:
              op.result = !present;
              if (!present) ref[op.key.key] = op.key.value;
              break;
            case Op::Kind::kAssign:
              op.result = !present;
              ref[op.key.key] = op.key.value;
              break;
            case Op::Kind::kErase:
              op.result = present;
              ref.erase(op.key.key);
              break;
          }
        }
      }
      const std::uint64_t fanned = st.stats.fanout_batches;
      std::span<Op> spans[3] = {runs[0], runs[1], runs[2]};
      Op::apply_runs(std::span<std::span<Op>>(spans, 3), st);
      EXPECT_EQ(st.stats.fanout_batches, fanned + (fan ? 1 : 0));
      for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t i = 0; i < runs[r].size(); ++i) {
          const Op& got = runs[r][i];
          const Op& want = expect[r][i];
          ASSERT_EQ(got.result, want.result)
              << "round " << round << " run " << r << " op " << i;
          if (got.kind == Op::Kind::kContains && got.result) {
            ASSERT_EQ(got.key.value, want.key.value)
                << "round " << round << " run " << r << " op " << i;
          }
        }
      }
    }

    // Final contents: every key reads back the reference value from the
    // shard that owns it, and nothing else is stored.
    std::vector<Op> reads;
    for (std::uint64_t s = 0; s < 8; ++s) {
      for (std::uint64_t k = 0; k < kKeysPerShard; ++k) {
        reads.push_back(Op::contains(Entry{s * kShardWidth + k, 0}));
      }
    }
    std::span<Op> read_span[1] = {reads};
    Op::apply_runs(std::span<std::span<Op>>(read_span, 1), st);
    std::size_t stored = 0;
    for (const auto& sh : st.shards) stored += sh->size();
    EXPECT_EQ(stored, ref.size());
    for (const Op& op : reads) {
      const auto it = ref.find(op.key.key);
      ASSERT_EQ(op.result, it != ref.end()) << "key " << op.key.key;
      if (op.result) {
        ASSERT_EQ(op.key.value, it->second) << "key " << op.key.key;
      }
    }

    // A batch whose ops all fall in one shard runs inline, however large.
    const std::uint64_t fanned = st.stats.fanout_batches;
    std::vector<Op> one_shard;
    for (std::uint64_t i = 0; i < 300; ++i) {
      one_shard.push_back(Op::assign(Entry{3 * kShardWidth + i % 50, i}));
    }
    std::span<Op> one_span[1] = {one_shard};
    Op::apply_runs(std::span<std::span<Op>>(one_span, 1), st);
    EXPECT_EQ(st.stats.fanout_batches, fanned);
  }
}

// ---------------------------------------------------------------------------
// BatchedMap: the key/value veneer, every engine.
// ---------------------------------------------------------------------------

template <typename M>
class BatchedMapTest : public ::testing::Test {};
#define CCDS_WRAP_BMAP(E) \
  BatchedMap<std::uint64_t, std::uint64_t, std::less<std::uint64_t>, E>
using BatchedMapTypes =
    ::testing::Types<CCDS_COMBINER_ENGINE_LIST(CCDS_WRAP_BMAP)>;
#undef CCDS_WRAP_BMAP
TYPED_TEST_SUITE(BatchedMapTest, BatchedMapTypes);

TYPED_TEST(BatchedMapTest, PutGetEraseRoundTrip) {
  TypeParam m;
  EXPECT_EQ(m.get(1), std::nullopt);
  EXPECT_TRUE(m.put(1, 10));
  EXPECT_FALSE(m.put(1, 11));  // overwrite: key was present
  EXPECT_EQ(m.get(1), 11u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.get(1), std::nullopt);
  EXPECT_EQ(m.size(), 0u);
}

TYPED_TEST(BatchedMapTest, BatchGetsReadValuesAndLwwApplies) {
  TypeParam m;
  using Op = typename TypeParam::Op;
  std::vector<Op> ops;
  ops.push_back(TypeParam::put_op(5, 100));
  ops.push_back(TypeParam::get_op(5));      // sees 100
  ops.push_back(TypeParam::put_op(5, 200)); // last writer
  ops.push_back(TypeParam::get_op(7));      // miss
  m.apply_batch(std::span<Op>(ops));
  EXPECT_TRUE(ops[0].result);
  EXPECT_TRUE(ops[1].result);
  EXPECT_EQ(ops[1].key.value, 100u);
  EXPECT_FALSE(ops[2].result);
  EXPECT_FALSE(ops[3].result);
  EXPECT_EQ(m.get(5), 200u);
}

TYPED_TEST(BatchedMapTest, ConcurrentPutsToDistinctKeys) {
  TypeParam m;
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kPerThread = 400;
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const std::uint64_t k = idx * kPerThread + i;
      ASSERT_TRUE(m.put(k, k * 2));
    }
  });
  EXPECT_EQ(m.size(), kThreads * kPerThread);
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(m.get(k), k * 2) << "key " << k;
  }
}

TYPED_TEST(BatchedMapTest, ShardedMapWithKeyedLevels) {
  // Splitters + keyed towers together (the bench configuration).
  BatchedMap<std::uint64_t, std::uint64_t, std::less<std::uint64_t>, CcSynch,
             SkipListLevels::kKeyed>
      m({100, 200});
  EXPECT_EQ(m.shard_count(), 3u);
  for (std::uint64_t k = 0; k < 300; k += 5) EXPECT_TRUE(m.put(k, k + 1));
  for (std::uint64_t k = 0; k < 300; ++k) {
    if (k % 5 == 0) {
      ASSERT_EQ(m.get(k), k + 1) << "key " << k;
    } else {
      ASSERT_EQ(m.get(k), std::nullopt) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace ccds
