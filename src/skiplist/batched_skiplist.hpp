// Batch-parallel ordered set: an OBATCHER-style combining front over
// per-key-range sequential skip lists ("Concurrent Data Structures Made
// Easy" — see PAPERS.md; the combining engines are the Synch-framework
// reproductions in sync/).
//
// The pipeline, per combining episode:
//
//   submitters                         combiner
//   ----------                        ---------------------------------
//   publish mergeable request    -->  gather ALL pending runs
//   (the run as built, unsorted)       (CcSynch: consecutive list nodes;
//   spin locally                       FlatCombiner: slot scan)
//                                     BUCKET every op by key-range shard,
//                                      in combining order (branch-free
//                                      search over the splitters:
//                                      ceil(log2 shards) comparisons per op)
//                                     per non-empty shard, one segment task
//                                      (fanned out to helper threads above
//                                      a size threshold; pool/
//                                      stealing_pool.hpp), which:
//                                       STABLE-SORTS its bucket by key,
//                                       groups equal keys, LAST-WRITER-WINS
//                                        (each op's result slot still filled)
//                                       applies each group once, left-to-
//                                        right, resuming the search from the
//                                        previous key's position (finger
//                                        seek: O(log d) for gap d, so a batch
//                                        of B over N keys costs
//                                        O(B + B·log(N/B)) instead of
//                                        O(B·log N))
//                                     HELP until the latch drains
//
// Sorting happens in the segment tasks, so with an executor attached it
// runs in parallel across shards, on whichever thread applies the shard.
// The sort is stable and the buckets are filled in combining order, so
// ties keep submission order within a run and combining order across runs:
// last-writer-wins is exactly that of applying the runs one after another.
// Bucketing, sorting, deduplication and application all happen inside one
// combining episode, so a batch — and the union of merged batches — is
// atomic with respect to every other operation on the structure.  Per-op
// results are written into the ops before any submitter's wait drops.
//
// The state is partitioned into disjoint key ranges by a fixed splitter
// vector (empty = one range).  Ranges give two things: single operations
// descend a shard of N/P keys (cheaper than N), and an episode's ops split
// into per-shard buckets that helper threads can sort and apply in parallel
// against independent sequential structures — no synchronization inside a
// segment at all, which is the OBATCHER bet: batch-level parallelism with
// sequential-structure simplicity.
//
// When batching LOSES: tiny batches (sort overhead, nothing to amortize),
// batches wider than the key locality (gaps d ~ N/B approach N and the
// finger seek degenerates to a full descent), and read-mostly single-op
// workloads where a lock-free traversal would not serialize at all (see
// docs/algorithms.md and EXPERIMENTS.md E18).  With one shard and no
// executor, the combiner alone sorts every pending run (EXPERIMENTS.md
// E23).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "skiplist/seq_skiplist.hpp"
#include "sync/ccsynch.hpp"
#include "sync/combiner.hpp"

namespace ccds {

// Hard cap on key-range shards (and thus fan-out width per batch).
inline constexpr std::size_t kBatchedSkipListMaxShards = 64;

struct BatchedSkipListStats {
  std::uint64_t batches = 0;           // merged applications (apply_runs calls)
  std::uint64_t merged_runs = 0;       // submitted runs folded into them
  std::uint64_t ops = 0;               // operations across all runs
  std::uint64_t dedup_folded = 0;      // ops beyond the first in a same-key group
  std::uint64_t fanout_batches = 0;    // batches that dispatched to helpers
  std::uint64_t fanout_subbatches = 0; // segments dispatched across all of those
};

namespace detail {

// The sequential state a combining engine serializes: the range shards,
// the splitters that route keys to them, and combiner-owned scratch.
template <typename Key, typename Compare, SkipListLevels Levels>
struct BatchedSkipState {
  using Seq = SeqSkipListSet<Key, Compare, Levels>;

  // One operation of a batch.  Built by the static factories; `result` and
  // (for kContains hits) `key` are written by the combiner before the
  // submitting call returns.
  struct Op {
    enum class Kind : std::uint8_t {
      kContains,  // result = present; on hit, key is overwritten with the
                  // STORED element (how BatchedMap reads values back)
      kInsert,    // set insert: result = "was absent"; no-op when present
      kAssign,    // insert-or-assign: result = "was absent"; overwrites the
                  // stored element when present (map put)
      kErase,     // result = "was present"
    };

    static Op contains(Key k) { return Op{std::move(k), Kind::kContains}; }
    static Op insert(Key k) { return Op{std::move(k), Kind::kInsert}; }
    static Op assign(Key k) { return Op{std::move(k), Kind::kAssign}; }
    static Op erase(Key k) { return Op{std::move(k), Kind::kErase}; }

    Op() = default;
    Op(Key k, Kind ki) : key(std::move(k)), kind(ki) {}

    Key key{};
    Kind kind = Kind::kContains;
    bool result = false;

    // Single-op execution (the engines' apply/apply_batch path): same
    // semantics as a one-op batch, minus the bucketing.
    void operator()(BatchedSkipState& s) {
      Seq& shard = *s.shards[s.shard_of(key)];
      typename Seq::Finger f = shard.finger();
      shard.seek(f, key);
      const bool present = shard.found_at(f, key);
      switch (kind) {
        case Kind::kContains:
          result = present;
          if (present) key = shard.found_ref(f);
          break;
        case Kind::kInsert:
          result = !present;
          if (!present) shard.insert_new_at(f, key);
          break;
        case Kind::kAssign:
          result = !present;
          if (present) {
            shard.found_ref(f) = key;
          } else {
            shard.insert_new_at(f, key);
          }
          break;
        case Kind::kErase:
          result = present;
          if (present) shard.remove_found_at(f);
          break;
      }
    }

    // Merged application: every pending run of one combining episode, in
    // combining order.  Runs in the combiner; see the member functions
    // below for the bucket / sort / dedup / apply pipeline.
    static void apply_runs(std::span<std::span<Op>> runs,
                           BatchedSkipState& s) {
      s.apply_runs_impl(runs);
    }
  };

  BatchedSkipState() { shards.push_back(std::make_unique<Seq>()); }

  // Deep copy for episode-copying engines (PSim copy-constructs the whole
  // state per combining episode).  Shards and routing are copied; the
  // fan-out hook carries over (the executor is engine-independent); the
  // combiner scratch starts empty — it is per-episode working memory, and
  // the source's buckets point into the SOURCE episode's ops.
  BatchedSkipState(const BatchedSkipState& o)
      : splitters(o.splitters),
        stats(o.stats),
        dispatch(o.dispatch),
        exec(o.exec),
        fanout_threshold(o.fanout_threshold) {
    shards.reserve(o.shards.size());
    for (const auto& sh : o.shards) {
      shards.push_back(std::make_unique<Seq>(*sh));
    }
  }

  BatchedSkipState& operator=(const BatchedSkipState&) = delete;

  // Splitters partition the key space into shards: shard i holds the keys
  // with exactly i splitters <= key.  They are fixed for the structure's
  // lifetime (a static partition; re-balancing is future work).
  explicit BatchedSkipState(std::vector<Key> splits)
      : splitters(std::move(splits)) {
    Compare comp{};
    std::sort(splitters.begin(), splitters.end(), comp);
    splitters.erase(std::unique(splitters.begin(), splitters.end(),
                                [&comp](const Key& a, const Key& b) {
                                  return !comp(a, b) && !comp(b, a);
                                }),
                    splitters.end());
    if (splitters.size() > kBatchedSkipListMaxShards - 1) {
      splitters.resize(kBatchedSkipListMaxShards - 1);
    }
    for (std::size_t i = 0; i <= splitters.size(); ++i) {
      shards.push_back(std::make_unique<Seq>());
    }
  }

  // The shard holding `key`: the number of splitters <= key, by a binary
  // search whose step is a conditional move, not a branch — ceil(log2 S)
  // comparisons for S shards, none with one shard.  The search runs over
  // the S positions [0, S); position i > 0 stands for splitters[i - 1].
  std::size_t shard_of(const Key& key) const {
    Compare comp{};
    std::size_t base = 0;
    std::size_t n = splitters.size() + 1;
    while (n > 1) {
      const std::size_t half = n / 2;
      base = comp(key, splitters[base + half - 1]) ? base : base + half;
      n -= half;
    }
    return base;
  }

  // One fan-out unit: a shard's bucket plus its output (the dedup count),
  // written by whichever thread runs it and summed by the combiner after
  // the wait.
  struct SegJob {
    BatchedSkipState* state;
    std::size_t shard;
    std::uint64_t folded;

    static void run(void* ctx) {
      SegJob* j = static_cast<SegJob*>(ctx);
      j->folded = j->state->apply_segment(j->shard);
    }
  };

  void apply_runs_impl(std::span<std::span<Op>> runs) {
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    stats.batches += 1;
    stats.merged_runs += runs.size();
    stats.ops += total;

    // Combining order, then submission order within a run: the order every
    // bucket's stable sort keeps among equal keys.
    buckets.resize(shards.size());
    for (auto& b : buckets) b.clear();
    for (const auto& r : runs) {
      for (Op& op : r) buckets[shard_of(op.key)].push_back(&op);
    }
    jobs.clear();
    for (std::size_t sh = 0; sh < buckets.size(); ++sh) {
      if (!buckets[sh].empty()) jobs.push_back(SegJob{this, sh, 0});
    }

    const bool fan = dispatch != nullptr && jobs.size() > 1 &&
                     total >= fanout_threshold;
    if (fan) {
      stats.fanout_batches += 1;
      stats.fanout_subbatches += jobs.size();
      dispatch(exec, jobs.data(), jobs.size());
    } else {
      for (SegJob& j : jobs) SegJob::run(&j);
    }
    for (const SegJob& j : jobs) stats.dedup_folded += j.folded;
  }

  // Sort and apply one shard's bucket: stable-sort the ops by key, then walk
  // them with a finger (each key resumes from the previous key's position),
  // folding same-key groups — every op's result slot is written, but the
  // structure sees at most ONE mutation per key (the group's net effect),
  // so no intermediate state ever materializes.  Returns the number of
  // folded (non-first) ops.
  std::uint64_t apply_segment(std::size_t sh) {
    std::vector<Op*>& ops = buckets[sh];
    Compare comp{};
    std::stable_sort(ops.begin(), ops.end(), [&comp](const Op* a, const Op* b) {
      return comp(a->key, b->key);
    });
    Seq& shard = *shards[sh];
    typename Seq::Finger f = shard.finger();
    std::uint64_t folded = 0;
    std::size_t i = 0;
    while (i < ops.size()) {
      const Key& key = ops[i]->key;
      shard.seek(f, key);
      const bool initial = shard.found_at(f, key);
      // The group's live element image: the stored one initially, then the
      // key slot of the latest kInsert/kAssign that took effect.
      Key* stored = initial ? &shard.found_ref(f) : nullptr;
      const Key* current = stored;
      bool present = initial;
      std::size_t j = i;
      for (; j < ops.size(); ++j) {
        Op* op = ops[j];
        if (j > i && comp(key, op->key)) break;  // next key group
        switch (op->kind) {
          case Op::Kind::kContains:
            op->result = present;
            if (present) op->key = *current;
            break;
          case Op::Kind::kInsert:
            op->result = !present;
            if (!present) {
              current = &op->key;
              present = true;
            }
            break;
          case Op::Kind::kAssign:
            op->result = !present;
            current = &op->key;
            present = true;
            break;
          case Op::Kind::kErase:
            op->result = present;
            present = false;
            break;
        }
      }
      folded += (j - i) - 1;
      if (present != initial) {
        if (present) {
          shard.insert_new_at(f, *current);
        } else {
          shard.remove_found_at(f);
        }
      } else if (present && current != stored) {
        *stored = *current;  // net effect of a kAssign chain on a live key
      }
      i = j;
    }
    return folded;
  }

  // Type-erased fan-out trampoline.  Publishes jobs [keep, n) with one bulk
  // submit, runs [0, keep) itself, then helps until the latch drains, where
  // keep = ceil(n / (workers + 1)) is the combiner's fair share.  The
  // combiner thus applies the same low shards batch after batch and their
  // nodes stay in its core's cache; running its own share without a worker
  // is also what keeps a 1-CPU host live.
  template <typename Exec>
  static void dispatch_to(void* ex, SegJob* jobs, std::size_t n) {
    Exec& e = *static_cast<Exec*>(ex);
    const std::size_t keep = (n + e.worker_count()) / (e.worker_count() + 1);
    typename Exec::Task tasks[kBatchedSkipListMaxShards];
    for (std::size_t i = keep; i < n; ++i) {
      tasks[i - keep].fn = &SegJob::run;
      tasks[i - keep].ctx = &jobs[i];
    }
    typename Exec::Latch latch;
    e.submit_bulk(std::span<typename Exec::Task>(tasks, n - keep), latch);
    for (std::size_t i = 0; i < keep; ++i) SegJob::run(&jobs[i]);
    e.wait(latch);
  }

  // Point the fan-out hook at executor `e` (it must outlive the
  // attachment), or back to inline application.
  template <typename Exec>
  void attach(Exec& e) {
    exec = &e;
    dispatch = &dispatch_to<Exec>;
  }

  void detach() {
    exec = nullptr;
    dispatch = nullptr;
  }

  std::vector<Key> splitters;
  std::vector<std::unique_ptr<Seq>> shards;
  BatchedSkipListStats stats;

  // Fan-out hook (type-erased so this header needs no executor type): set
  // by attach(), called by the combiner with the per-shard jobs of one
  // batch.  Null = apply segments inline.
  void (*dispatch)(void* exec, SegJob* jobs, std::size_t n) = nullptr;
  void* exec = nullptr;
  std::size_t fanout_threshold = 256;

  // Combiner-owned scratch, reused across batches: one bucket of op
  // pointers per shard, filled by the combiner and then sorted and applied
  // by the one thread that runs its SegJob.
  std::vector<std::vector<Op*>> buckets;
  std::vector<SegJob> jobs;
};

}  // namespace detail

// The combining front.  Engine-templated exactly like the PR 4 fronts
// (CcSynch default, FlatCombiner drop-in); Levels picks the tower-height
// policy of the underlying sequential shards (kKeyed for deterministic
// shapes in ablations and model tests).
template <typename Key, typename Compare = std::less<Key>,
          template <typename> class Engine = CcSynch,
          SkipListLevels Levels = SkipListLevels::kRandom>
class BatchedSkipListSet {
 public:
  using State = detail::BatchedSkipState<Key, Compare, Levels>;
  using Op = typename State::Op;
  static_assert(CombinerFor<Engine<State>, State>,
                "Engine must model the Combiner policy (sync/combiner.hpp)");

  BatchedSkipListSet() = default;

  // Partition the key space at `splitters` (sorted/deduped internally):
  // one sequential shard per range, fan-out across them.
  explicit BatchedSkipListSet(std::vector<Key> splitters)
      : engine_(State(std::move(splitters))) {}

  bool contains(const Key& key) const {
    Op op = Op::contains(key);
    engine_.apply_sorted_batch(std::span<Op>(&op, 1));
    return op.result;
  }

  bool insert(const Key& key) {
    Op op = Op::insert(key);
    engine_.apply_sorted_batch(std::span<Op>(&op, 1));
    return op.result;
  }

  bool remove(const Key& key) {
    Op op = Op::erase(key);
    engine_.apply_sorted_batch(std::span<Op>(&op, 1));
    return op.result;
  }

  // Submit `ops` as ONE batch: sorted + deduplicated by key inside the
  // combining episode (last-writer-wins in submission order), applied in a
  // single left-to-right pass per shard, atomic w.r.t. every other
  // operation.  Results land in each op's `result` (and `key` for kContains
  // hits) in the caller's original slot order, which is never permuted.
  void apply_batch(std::span<Op> ops) { engine_.apply_sorted_batch(ops); }

  std::size_t size() const {
    return engine_.apply([](State& s) {
      std::size_t n = 0;
      for (const auto& sh : s.shards) n += sh->size();
      return n;
    });
  }

  std::size_t shard_count() const {
    return engine_.apply([](State& s) { return s.shards.size(); });
  }

  // Attach a helper-thread executor (e.g. StealingExecutor): episodes of at
  // least the fan-out threshold whose ops span >1 shard are split into
  // per-shard sub-batches, bulk-submitted, and helped to completion.
  // The executor must outlive the attachment (detach before destroying it).
  template <typename Exec>
  void attach_executor(Exec& e) {
    Exec* ep = &e;
    engine_.apply_locked([ep](State& s) { s.attach(*ep); });
  }

  void detach_executor() {
    engine_.apply_locked([](State& s) { s.detach(); });
  }

  // Minimum episode size (ops across all merged runs) that triggers fan-out
  // (default 256): below it, dispatch overhead beats the parallelism.
  void set_fanout_threshold(std::size_t n) {
    engine_.apply_locked([n](State& s) { s.fanout_threshold = n; });
  }

  BatchedSkipListStats stats() const {
    return engine_.apply([](State& s) { return s.stats; });
  }

  void reset_stats() {
    engine_.apply_locked([](State& s) { s.stats = BatchedSkipListStats{}; });
  }

 private:
  // mutable: combining serializes logically-const reads through apply too.
  mutable Engine<State> engine_{};
};

}  // namespace ccds
