// Cross-policy ablation suite: every node-based structure, typed over the
// full reclamation-policy matrix {Leaky, Hazard (wide), Epoch, QSBR} plus
// the lease-amortized adapters.  The point is that a structure's
// correctness must be POLICY-INDEPENDENT: the same concurrent witnesses
// (conservation, set semantics, no use-after-free — ASan-backed via
// scripts/run_asan_ubsan.sh) must hold under per-pointer protection,
// per-operation pins, and fence-free quiescent-state reads alike.
//
// WideHazardDomain stands in for hazard pointers throughout: the skip lists
// need a preds/succs slot pair per level (2*16 + scratch), which the
// default 8-slot domain cannot cover, and one domain type per policy keeps
// the matrix a clean cross-product.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "hash/split_ordered_set.hpp"
#include "hash/swiss_hash_map.hpp"
#include "list/harris_list.hpp"
#include "list/lazy_list.hpp"
#include "list/optimistic_list.hpp"
#include "pool/stealing_pool.hpp"
#include "queue/ms_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/rcu_cell.hpp"
#include "reclaim/reclaim.hpp"
#include "skiplist/batched_skiplist.hpp"
#include "skiplist/lazy_skiplist.hpp"
#include "skiplist/lockfree_skiplist.hpp"
#include "stack/elimination_stack.hpp"
#include "stack/treiber_stack.hpp"
#include "sync/atomic_snapshot.hpp"
#include "sync/engines.hpp"
#include "sync/spinlock.hpp"
#include "test_util.hpp"

namespace ccds {
namespace {

template <typename D>
class PolicyTest : public ::testing::Test {};

using Policies =
    ::testing::Types<LeakyDomain, WideHazardDomain, EpochDomain, QsbrDomain,
                     EpochLeaseDomain, LeasedDomain<QsbrDomain>>;
TYPED_TEST_SUITE(PolicyTest, Policies);

// The concept is the contract this whole file instantiates against.
static_assert(reclaimer<LeakyDomain> && reclaimer<WideHazardDomain> &&
              reclaimer<EpochDomain> && reclaimer<QsbrDomain> &&
              reclaimer<EpochLeaseDomain> &&
              reclaimer<LeasedDomain<QsbrDomain>>);

// After a structure's threads have joined and its final state is verified,
// the domain must honor the quiescent drain contract regardless of policy.
template <typename D>
void expect_drained(D& dom) {
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
}

// ---------- Harris–Michael list ----------

TYPED_TEST(PolicyTest, HarrisListConcurrentChurn) {
  HarrisMichaelListSet<std::uint64_t, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1500;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
      if (!s.contains(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

// ---------- locking lists (optimistic + lazy) ----------

TYPED_TEST(PolicyTest, OptimisticListConcurrentChurn) {
  OptimisticListSet<std::uint64_t, std::less<std::uint64_t>, TtasLock,
                    TypeParam>
      s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 800;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
      if (s.contains(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

TYPED_TEST(PolicyTest, LazyListConcurrentChurn) {
  LazyListSet<std::uint64_t, std::less<std::uint64_t>, TtasLock, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 800;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
      if (s.contains(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

// ---------- Michael–Scott queue ----------

TYPED_TEST(PolicyTest, MSQueueConservation) {
  MSQueue<std::uint64_t, TypeParam> q;
  constexpr std::size_t kProducers = 2, kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 4000;
  std::vector<std::vector<std::uint64_t>> got(kConsumers);
  std::atomic<std::uint64_t> consumed{0};
  test::run_threads(kProducers + kConsumers, [&](std::size_t idx) {
    if (idx < kProducers) {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.enqueue(idx * kPerProducer + i);
      }
    } else {
      auto& mine = got[idx - kProducers];
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (auto v = q.try_dequeue()) {
          mine.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::set<std::uint64_t> all;
  for (const auto& mine : got) all.insert(mine.begin(), mine.end());
  EXPECT_EQ(all.size(), kProducers * kPerProducer);  // nothing lost or duped
  EXPECT_FALSE(q.try_dequeue().has_value());
  expect_drained(q.domain());
}

// ---------- Treiber + elimination stacks ----------

TYPED_TEST(PolicyTest, TreiberStackConservation) {
  TreiberStack<std::uint64_t, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 4000;
  std::atomic<std::uint64_t> popped{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      s.push(idx * kPerThread + i);
      if (auto v = s.try_pop()) popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::uint64_t leftover = 0;
  while (s.try_pop()) ++leftover;
  EXPECT_EQ(popped.load() + leftover, kThreads * kPerThread);
  expect_drained(s.domain());
}

TYPED_TEST(PolicyTest, EliminationStackConservation) {
  EliminationBackoffStack<std::uint64_t, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::atomic<std::uint64_t> popped{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      s.push(idx * kPerThread + i);
      if (auto v = s.try_pop()) popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::uint64_t leftover = 0;
  while (s.try_pop()) ++leftover;
  EXPECT_EQ(popped.load() + leftover, kThreads * kPerThread);
  expect_drained(s.domain());
}

// ---------- split-ordered hash set ----------

TYPED_TEST(PolicyTest, SplitOrderedConcurrentDisjointRanges) {
  SplitOrderedHashSet<std::uint64_t, MixHash<std::uint64_t>, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s.size(), kThreads * kPerThread / 2);
  expect_drained(s.domain());
}

// ---------- swiss table ----------

TYPED_TEST(PolicyTest, SwissMapConcurrentDisjointKeys) {
  SwissHashMap<std::uint64_t, std::uint64_t, MixHash<std::uint64_t>,
               TypeParam>
      m(16);  // tiny initial table: force cooperative rehashes mid-churn
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!m.insert(base + i, i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      auto v = m.get(base + i);
      if (!v || *v != i) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!m.erase(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(m.size(), kThreads * kPerThread / 2);
  expect_drained(m.domain());
}

// ---------- skip lists ----------

TYPED_TEST(PolicyTest, LockFreeSkipListConcurrentChurn) {
  LockFreeSkipListSet<std::uint64_t, std::less<std::uint64_t>, TypeParam> s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1200;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
      if (!s.contains(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

// The kRestart ablation baseline (bench_skiplists.cpp E17) is shipped code
// and must hold up across the same six-policy matrix as the default
// local-recovery build — including the pointer-based domains, where the
// knob is moot (HP always restarts) but the instantiation must still
// compile and run.
TYPED_TEST(PolicyTest, LockFreeSkipListRestartConcurrentChurn) {
  LockFreeSkipListSet<std::uint64_t, std::less<std::uint64_t>, TypeParam,
                      SkipListRecovery::kRestart>
      s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1200;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
      if (!s.contains(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

TYPED_TEST(PolicyTest, LazySkipListConcurrentChurn) {
  LazySkipListSet<std::uint64_t, std::less<std::uint64_t>, TtasLock,
                  TypeParam>
      s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1200;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    const std::uint64_t base = idx * kPerThread;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      if (!s.insert(base + i)) failures.fetch_add(1);
    }
    for (std::uint64_t i = 0; i < kPerThread; i += 2) {
      if (!s.remove(base + i)) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  for (std::uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(s.contains(i), (i % 2) == 1) << "key " << i;
  }
  expect_drained(s.domain());
}

// Contended flavor: all threads fight over one 32-key range, so the lazy
// list's unlock-validate-retry path and its deferred node retirement both
// run hot under every policy.  Per-thread net counters make the final
// state checkable without any cross-thread coordination during the run.
TYPED_TEST(PolicyTest, LazySkipListContendedConservation) {
  LazySkipListSet<std::uint64_t, std::less<std::uint64_t>, TtasLock,
                  TypeParam>
      s;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kKeys = 32;
  constexpr int kOps = 8000;
  std::vector<std::vector<std::int64_t>> net(
      kThreads, std::vector<std::int64_t>(kKeys, 0));
  test::run_threads(kThreads, [&](std::size_t idx) {
    auto& mine = net[idx];
    std::uint64_t state = idx * 77779 + 3;
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
    ASSERT_GE(total, 0) << "key " << k;
    ASSERT_LE(total, 1) << "key " << k;
    EXPECT_EQ(s.contains(k), total == 1) << "key " << k;
  }
  expect_drained(s.domain());
}

// ---------- stealing pool ----------

TYPED_TEST(PolicyTest, StealingPoolConservation) {
  StealingPool<std::uint64_t, TypeParam> pool;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::atomic<std::uint64_t> got{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      pool.put(idx * kPerThread + i);
      if ((i & 3) == 3) {  // drain a quarter as we go (exercises stealing)
        if (pool.try_get()) got.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  while (pool.try_get()) got.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(got.load(), kThreads * kPerThread);
  EXPECT_TRUE(pool.empty());
}

// ---------- batched skip list over a fan-out executor ----------

// The whole batching pipeline — merged combining episodes, key-range
// segmentation, bulk task submission, helper-thread application — churns
// under every policy AND every combining engine (sync/engines.hpp): the
// executor's pool shards are TreiberStacks whose nodes go through the
// policy TypeParam, so a policy bug anywhere in the fan-out path surfaces
// as lost tasks (latch hang) or ASan-visible reuse, and an engine bug
// (lost episode, torn batch) as a stats mismatch.
template <template <typename> class Engine, typename Policy>
void batched_fanout_churn_one() {
  using Set = BatchedSkipListSet<std::uint64_t, std::less<std::uint64_t>,
                                 Engine>;
  StealingExecutor<Policy> exec(2);
  Set s({500, 1000, 1500});
  s.attach_executor(exec);
  s.set_fanout_threshold(16);
  using Op = typename Set::Op;
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 40;
  constexpr int kBatch = 48;
  test::run_threads(kThreads, [&](std::size_t idx) {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Op> ops;
      for (int i = 0; i < kBatch; ++i) {
        // Spread each batch across the whole 0..2000 key space so the
        // merged run crosses shard boundaries (fan-out segments > 1).
        const std::uint64_t k =
            (static_cast<std::uint64_t>(i) * 2000 / kBatch) + idx * 7 + r;
        ops.push_back(r % 2 == 0 ? Op::insert(k % 2000) : Op::erase(k % 2000));
      }
      s.apply_batch(std::span<Op>(ops));
    }
  });
  const auto st = s.stats();
  EXPECT_EQ(st.ops,
            static_cast<std::uint64_t>(kThreads) * kRounds * kBatch)
      << "engine " << combining_engine_name<Engine>::value;
  EXPECT_GT(st.fanout_batches, 0u)
      << "engine " << combining_engine_name<Engine>::value;
  s.detach_executor();
  exec.quiesce();
  exec.pool().collect_all();
  EXPECT_EQ(exec.pool().retired_count(), 0u)
      << "engine " << combining_engine_name<Engine>::value;
}

TYPED_TEST(PolicyTest, BatchedSkipListFanOutChurn) {
#define CCDS_CHURN_ROW(E) batched_fanout_churn_one<E, TypeParam>();
  CCDS_COMBINER_ENGINES(CCDS_CHURN_ROW)
#undef CCDS_CHURN_ROW
}

// ---------- RCU cell ----------

TYPED_TEST(PolicyTest, RcuCellReadersNeverSeeTornState) {
  struct Pair {
    std::uint64_t a = 0, b = 0;  // invariant: b == 2 * a
  };
  RcuCell<Pair, TypeParam> cell;
  constexpr std::size_t kThreads = 4;
  std::atomic<int> failures{0};
  test::run_threads(kThreads, [&](std::size_t idx) {
    if (idx == 0) {  // writer
      for (std::uint64_t i = 1; i <= 3000; ++i) {
        cell.update([&](Pair& p) {
          p.a = i;
          p.b = 2 * i;
        });
      }
    } else {  // readers
      for (int i = 0; i < 3000; ++i) {
        auto snap = cell.read();
        if (snap->b != 2 * snap->a) failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cell.load().b, 2 * cell.load().a);
  expect_drained(cell.domain());
}

// ---------- atomic snapshot ----------

TYPED_TEST(PolicyTest, AtomicSnapshotScansAreConsistent) {
  // 3 registers -> 6 protection slots under HP (WideHazardDomain has 40).
  AtomicSnapshot<std::uint64_t, TypeParam> snap(3);
  constexpr std::size_t kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  test::run_threads(kWriters + 1, [&](std::size_t idx) {
    if (idx < kWriters) {  // one writer per register (single-writer model)
      for (std::uint64_t v = 1; v <= 800; ++v) {
        snap.update(idx, v);  // each register counts up monotonically
      }
      if (idx == 0) stop.store(true);
    } else {  // scanner: a snapshot of monotone counters must be monotone
      std::vector<std::uint64_t> prev(3, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::uint64_t> cur = snap.scan();
        for (std::size_t i = 0; i < 3; ++i) {
          if (cur[i] < prev[i]) failures.fetch_add(1);
        }
        prev = std::move(cur);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  expect_drained(snap.domain());
}

}  // namespace
}  // namespace ccds
