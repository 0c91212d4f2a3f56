// Unordered pool ("bag") with per-thread stacks and stealing, plus a
// bulk-submitting helper-thread executor built on it.
//
// The survey's answer to "what if you don't need FIFO/LIFO at all": an
// unordered put/get pool can shard perfectly.  Each thread puts into and
// gets from its own Treiber stack; a thread whose own stack is empty steals
// from the others, scanning from a random start to avoid herding.  A
// put/get pair on one thread touches no shared state with other threads at
// all in the common case.
//
// StealingExecutor is the fan-out engine BatchedSkipListSet uses: a small
// crew of worker threads pulls tasks from a StealingPool; submit_bulk
// publishes a whole span of tasks with ONE CAS (TreiberStack::push_bulk)
// and wait() lets the submitter HELP — it runs pending tasks itself until
// its completion latch drains, so progress never depends on a worker being
// scheduled (essential on an oversubscribed or single-CPU host, and it
// keeps the submitter from idling while its own work is runnable).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/arch.hpp"
#include "core/padded.hpp"
#include "core/rng.hpp"
#include "core/thread_registry.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaim.hpp"
#include "stack/treiber_stack.hpp"

namespace ccds {

// Epoch reclamation by default: stealing pops run concurrently with the
// owner's, so the per-thread stacks need a real domain; any `reclaimer`
// works (each shard owns its own domain instance).
template <typename T, reclaimer Domain = EpochDomain>
class StealingPool {
 public:
  void put(T v) { stacks_[thread_id()].push(std::move(v)); }

  // Publish a whole batch with one CAS on the caller's own stack (see
  // TreiberStack::push_bulk) — fan-out pays one synchronization action per
  // sub-batch span, not one per task.
  void put_bulk(std::span<const T> vs) {
    stacks_[thread_id()].push_bulk(vs);
  }

  // A stack whose head reads null is skipped on that one load, before
  // try_pop takes a reclaimer guard, and only ids that ever registered are
  // scanned: a poll of a drained pool touches no domain, so an idle
  // executor never pins the reclaimers its quiescent collect_all drains.
  std::optional<T> try_get() {
    const std::size_t me = thread_id();
    if (!stacks_[me].empty()) {
      if (auto v = stacks_[me].try_pop()) return v;
    }
    // Steal: scan the other registered stacks from a random starting point.
    const std::size_t ceiling = registered_ceiling();
    const std::size_t start = thread_rng().next_below(ceiling);
    for (std::size_t i = 0; i < ceiling; ++i) {
      const std::size_t victim = (start + i) % ceiling;
      if (victim == me || stacks_[victim].empty()) continue;
      if (auto v = stacks_[victim].try_pop()) return v;
    }
    return std::nullopt;
  }

  // Quiescent-only exact check.
  bool empty() const {
    for (const auto& s : stacks_) {
      if (!s.empty()) return false;
    }
    return true;
  }

  // Quiescent-only: drain every shard's reclamation domain and report what
  // is still pending (the typed reclaim suites assert 0 after a churn run).
  void collect_all() {
    for (auto& s : stacks_) s.domain().collect_all();
  }
  std::size_t retired_count() {
    std::size_t n = 0;
    for (auto& s : stacks_) n += s.domain().retired_count();
    return n;
  }

 private:
  TreiberStack<T, Domain> stacks_[kMaxThreads];
};

// Completion latch for one bulk submission: armed with the task count
// before the tasks are published, dropped once per executed task.  drained
// uses acquire so the waiter observes every task's side effects.
class BulkLatch {
 public:
  void arm(std::size_t n) {
    pending_.fetch_add(n, std::memory_order_relaxed);  // relaxed: armed before tasks publish
  }
  void done() {
    pending_.fetch_sub(1, std::memory_order_release);
  }
  bool drained() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }

 private:
  // unpadded: one latch per bulk submit, armed once and decremented once
  // per task — contention is bounded by design, padding would bloat the
  // caller's stack frame.
  std::atomic<std::size_t> pending_{0};
};

// Helper-thread crew over a StealingPool.  Tasks are plain (fn, ctx) pairs
// tied to a BulkLatch; whoever runs a task (worker or helping waiter)
// drops the latch afterwards.  Domain parametrizes the pool's reclamation
// policy so the typed reclaim suites can drive the whole fan-out path
// under every policy.
template <reclaimer Domain = EpochDomain>
class StealingExecutor {
 public:
  // Nested aliases let callers (BatchedSkipListSet::attach_executor) drive
  // any conforming executor without naming this header's types.
  using Latch = BulkLatch;

  struct Task {
    void (*fn)(void* ctx) = nullptr;
    void* ctx = nullptr;
    BulkLatch* latch = nullptr;
  };

  explicit StealingExecutor(std::size_t workers = 1) : acks_(workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  StealingExecutor(const StealingExecutor&) = delete;
  StealingExecutor& operator=(const StealingExecutor&) = delete;

  // Callers must wait() their latches out before destruction; any task
  // still pooled here is dropped unrun.
  ~StealingExecutor() {
    stop_.store(true, std::memory_order_release);
    for (auto& w : workers_) w.join();
    while (auto t = pool_.try_get()) {
      if (t->latch != nullptr) t->latch->done();
    }
  }

  // Arm `latch` for all of `tasks` and publish them with one CAS.  The
  // latch fields of the incoming tasks are overwritten; an empty span
  // leaves the latch drained.
  void submit_bulk(std::span<Task> tasks, BulkLatch& latch) {
    if (tasks.empty()) return;
    for (Task& t : tasks) t.latch = &latch;
    latch.arm(tasks.size());
    pool_.put_bulk(std::span<const Task>(tasks.data(), tasks.size()));
  }

  // Help until the latch drains: the waiter runs pending tasks itself
  // (possibly other submitters' — harmless, it only speeds them up) rather
  // than spinning, so a bulk completes even with zero runnable workers.
  void wait(BulkLatch& latch) {
    std::uint32_t spins = 0;
    while (!latch.drained()) {
      if (help_one()) {
        spins = 0;
      } else {
        spin_wait(spins);
      }
    }
  }

  // Pop and run one pending task; false if none was available.
  bool help_one() {
    if (auto t = pool_.try_get()) {
      run(*t);
      return true;
    }
    return false;
  }

  // Wait until every worker has passed the top of its loop since this call
  // began.  A poll that started earlier may still hold a reclaimer guard on
  // a task node it saw before the last task was popped; a worker at its
  // loop top has finished every such poll, and with no task pending a new
  // poll takes no guard (StealingPool::try_get).  Call it after every latch
  // has drained: the pool's quiescent-only collect_all is then safe while
  // the workers keep running.
  void quiesce() {
    const std::uint64_t req =
        quiesce_req_.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (auto& ack : acks_) {
      std::uint32_t spins = 0;
      while (ack.value.load(std::memory_order_acquire) < req) spin_wait(spins);
    }
  }

  std::size_t worker_count() const { return workers_.size(); }

  // Tasks executed by the worker crew (not by helping waiters): the
  // structural witness that fan-out actually crossed threads.
  std::uint64_t worker_executed() const {
    return worker_executed_.load(std::memory_order_relaxed);  // relaxed: stats
  }

  StealingPool<Task, Domain>& pool() { return pool_; }

 private:
  static void run(const Task& t) {
    t.fn(t.ctx);
    if (t.latch != nullptr) t.latch->done();
  }

  void worker_loop(std::size_t w) {
    std::uint32_t spins = 0;
    std::uint64_t acked = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      // acquire/release: the quiescer's pops (its drained latches) happen
      // before this worker's next poll, and this worker's earlier polls
      // (their guard releases) happen before the quiescer's collect.
      const std::uint64_t req = quiesce_req_.load(std::memory_order_acquire);
      if (req != acked) {
        acked = req;
        acks_[w].value.store(req, std::memory_order_release);
      }
      if (auto t = pool_.try_get()) {
        run(*t);
        worker_executed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: stats
        spins = 0;
      } else {
        spin_wait(spins);
      }
    }
  }

  StealingPool<Task, Domain> pool_;
  std::atomic<bool> stop_{false};  // unpadded: written once, at shutdown
  // unpadded: read by every worker loop like stop_, written only by
  // quiesce(); each worker acknowledges on its own line.
  std::atomic<std::uint64_t> quiesce_req_{0};
  std::vector<Padded<std::atomic<std::uint64_t>>> acks_;
  // unpadded: statistics counter bumped between pool CASes, not on a spin
  // path; readers poll it off the hot loop.
  std::atomic<std::uint64_t> worker_executed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace ccds
