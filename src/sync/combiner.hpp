// The Combiner engine protocol: the policy concept, the engine-traits
// layer, and the shared plumbing every combining engine builds on.
//
// ccds has four combining engines — FlatCombiner (scan-all-slots, Hendler
// et al. 2010), CcSynch (swap-append list, Fatourou & Kallimanis 2012),
// HSynch (per-topology-node CC-Synch lists under a global lock, the
// NUMA-aware member of the Synch framework) and PSim (the P-Sim wait-free
// universal construction: announce array + copy-apply-SC) — and all four
// expose the same surface:
//
//   * apply(op)          — execute `op(state)` atomically, return its result;
//   * apply_batch(ops)   — submit a contiguous batch of operations as ONE
//                          combining request (the OBATCHER entry point: the
//                          batch is executed back-to-back with no other
//                          operation interleaved, paying one synchronization
//                          episode for k operations);
//   * apply_sorted_batch(ops)
//                        — the ordered-structure extension point: the run
//                          is published as MERGEABLE, and a combiner that
//                          finds several pending runs of the same Op type
//                          executes them as one Op::apply_runs call — the
//                          OBATCHER shape, where the combining episode sees
//                          the union of all pending batches and sorts,
//                          applies and fans it out by key range itself;
//   * apply_locked(op)   — direct exclusive access for initialization and
//                          inspection, serialized with combining passes.
//
// `CombinerFor<Engine, State>` spells that contract out as a C++20 concept
// so the combining fronts (CombiningQueue / CombiningStack /
// CombiningCounter / BatchedSkipListSet) can accept any engine as a
// drop-in template argument.  The list-based engines get apply_batch and
// apply_sorted_batch from the CombinerBatchOps CRTP base below, so the
// batch-episode semantics are identical by construction; each engine only
// implements the mergeable-request publication (submit_merged) its protocol
// requires.  (PSim implements the batch surface directly: its helpers
// re-execute operations against discarded state copies, so batches are
// snapshotted into the announce record rather than run in place.)
//
// The engine-TRAITS layer (`combiner_traits<E>`) is how callers pick an
// engine without reading its header: every engine publishes
//
//   kIsWaitFree      — operations complete in a bounded number of the
//                      CALLING thread's steps, regardless of scheduling
//                      (PSim; the lock/handoff engines are blocking);
//   kIsHierarchical  — the engine consults core/topology.hpp and routes
//                      requests through per-node structures (HSynch);
//   kMaxEngineThreads— the dense-thread-id capacity the engine's fixed
//                      per-thread structures are sized for.
//
// sync/engines.hpp is the single enrollment point: the
// CCDS_COMBINER_ENGINES X-macro and the typed-test/bench helpers there are
// what fronts, typed suites, model suites and benches consume, so a new
// engine enrolls everywhere by one edit.
//
// This header also owns detail::ResultSlot<R>: aligned storage for a
// combined-op result that the *combiner* constructs in place.  Results are
// therefore not required to be default-constructible (they used to be, via
// value-initialized detail::FcResult) — any move-constructible R works, and
// for void nothing is stored at all.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "core/thread_registry.hpp"

namespace ccds {

namespace detail {

// Preemption-injection hook, shared by every engine: combiners call
// preemption_point() between serving steps (and PSim between building a
// state copy and its SC attempt), so tests and benches can park or delay a
// combiner exactly where a real preemption would hurt most.  Unset costs
// one relaxed load; the model checker needs no hook (its scheduler explores
// preemptions natively), so this stays a plain std::atomic.
using PreemptHook = void (*)(void* arg);

inline std::atomic<PreemptHook>& preempt_hook() noexcept {
  static std::atomic<PreemptHook> hook{nullptr};
  return hook;
}

inline std::atomic<void*>& preempt_hook_arg() noexcept {
  static std::atomic<void*> arg{nullptr};
  return arg;
}

// Install order matters: arg first, then fn (a caller seeing the fn sees
// its arg).  Passing nullptr uninstalls.
inline void set_preemption_hook(PreemptHook fn, void* arg) noexcept {
  if (fn == nullptr) {
    preempt_hook().store(nullptr, std::memory_order_release);
    preempt_hook_arg().store(nullptr, std::memory_order_release);
    return;
  }
  preempt_hook_arg().store(arg, std::memory_order_release);
  preempt_hook().store(fn, std::memory_order_release);
}

inline void preemption_point() noexcept {
  // relaxed: the fast path must be one load; installers synchronize with
  // the hooked threads externally (install-before-start / uninstall-after-
  // join, or an always-safe hook body).
  if (PreemptHook fn = preempt_hook().load(std::memory_order_relaxed)) {
    fn(preempt_hook_arg().load(std::memory_order_acquire));
  }
}

// Uninitialized, correctly-aligned storage for one combined-op result.  The
// submitting thread owns the slot (it lives on its stack); the combiner
// constructs the value with construct_from(); the submitter moves it out
// with take() after observing its completion flag.  The combining protocol
// guarantees construct_from() happens-before take() and each runs exactly
// once, so no constructed-flag is needed; combined ops must not throw (they
// run inside another thread's combining pass).
template <typename R>
class ResultSlot {
 public:
  ResultSlot() = default;
  ResultSlot(const ResultSlot&) = delete;
  ResultSlot& operator=(const ResultSlot&) = delete;

  template <typename F, typename State>
  void construct_from(F& fn, State& s) {
    ::new (static_cast<void*>(buf_)) R(fn(s));
  }

  R take() {
    R* p = std::launder(reinterpret_cast<R*>(buf_));
    R out = std::move(*p);
    p->~R();
    return out;
  }

 private:
  alignas(R) unsigned char buf_[sizeof(R)];
};

template <>
class ResultSlot<void> {};

// Type-erased trampoline shared by both engines' request records: `ctx`
// points at the caller's callable, `res` at its ResultSlot (null/ignored for
// void results).
template <typename State, typename F>
void run_erased(void* ctx, void* res, State& s) {
  using R = std::invoke_result_t<F&, State&>;
  auto& fn = *static_cast<F*>(ctx);
  if constexpr (std::is_void_v<R>) {
    (void)res;
    fn(s);
  } else {
    static_cast<ResultSlot<R>*>(res)->construct_from(fn, s);
  }
}

// A mergeable run as published to the engine: the submitter's contiguous Op
// array, in submission order (Op::apply_runs does any sorting).  Lives on
// the submitter's stack for the duration of the request.
struct SortedRun {
  void* data;
  std::size_t len;
};

// The type-erased entry point a combiner calls for a GROUP of pending
// mergeable runs of the same Op type: each ctx is a SortedRun*, in combining
// (linearization) order.
template <typename State>
using MergedRunFn = void (*)(void* const* ctxs, std::size_t n, State& s);

template <typename State, typename Op>
void run_merged_erased(void* const* ctxs, std::size_t n, State& s) {
  std::span<Op> runs[kMaxThreads];
  for (std::size_t i = 0; i < n; ++i) {
    const SortedRun& r = *static_cast<const SortedRun*>(ctxs[i]);
    runs[i] = std::span<Op>(static_cast<Op*>(r.data), r.len);
  }
  Op::apply_runs(std::span<std::span<Op>>(runs, n), s);
}

// Concept archetype for the sorted-batch surface (a function pointer cannot
// carry the static apply_runs hook a real batch Op type provides).
template <typename State>
struct BatchProbeOp {
  static void apply_runs(std::span<std::span<BatchProbeOp>>, State&) {}
  void operator()(State&) {}
};

}  // namespace detail

// Shared batch-episode surface, CRTP'd onto both engines so their semantics
// are identical by construction:
//
//   * apply_batch: the whole span runs back-to-back inside one combining
//     request (one publication, one spin episode), no foreign op inside;
//   * apply_sorted_batch: the caller's run, as built, is published as a
//     mergeable request via the engine's submit_merged.  A combiner that
//     encounters several pending runs of the same Op type hands them ALL to
//     one Op::apply_runs call, in combining order — that call sorts the
//     union and applies it in key order (and may fan disjoint key ranges
//     out to helper threads, each sorting and applying its own range; see
//     skiplist/batched_skiplist.hpp).  Per-op results live in the ops
//     themselves; every member request completes only after apply_runs
//     returns, so results are fully written before any submitter's wait
//     drops.
template <typename Derived, typename State>
class CombinerBatchOps {
 public:
  template <typename Op>
  void apply_batch(std::span<Op> ops) {
    if (ops.empty()) return;
    derived().apply([ops](State& s) {
      for (Op& op : ops) op(s);
    });
  }

  template <typename Op>
  void apply_sorted_batch(std::span<Op> ops) {
    if (ops.empty()) return;
    detail::SortedRun run{ops.data(), ops.size()};
    derived().submit_merged(&detail::run_merged_erased<State, Op>, &run);
  }

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
};

// The engine-traits layer: a uniform, compile-time view of what an engine
// guarantees, read off constants every engine must publish.  Callers pick
// engines by traits (docs/choosing_a_structure.md has the selection table)
// and the typed trait suite pins each engine's row down.
template <typename E>
struct combiner_traits {
  static constexpr bool is_wait_free = E::kIsWaitFree;
  static constexpr bool is_hierarchical = E::kIsHierarchical;
  static constexpr std::size_t max_threads = E::kMaxEngineThreads;
};

// A combining engine over sequential `State`.  Modeled by FlatCombiner,
// CcSynch, HSynch and PSim; the structure fronts static_assert it so a
// further engine (e.g. a future DSM-Synch for cacheless machines) plugs in
// by conforming.  The trait constants are part of the protocol: an engine
// that cannot state its progress guarantee does not enroll.
template <typename C, typename State>
concept CombinerFor =
    std::is_default_constructible_v<C> &&
    requires(C c, void (*vop)(State&), int (*iop)(State&),
             std::span<void (*)(State&)> batch,
             std::span<detail::BatchProbeOp<State>> sorted) {
      { c.apply(vop) } -> std::same_as<void>;
      { c.apply(iop) } -> std::same_as<int>;
      { c.apply_locked(iop) } -> std::same_as<int>;
      { c.apply_batch(batch) } -> std::same_as<void>;
      { c.apply_sorted_batch(sorted) } -> std::same_as<void>;
      { combiner_traits<C>::is_wait_free } -> std::convertible_to<bool>;
      { combiner_traits<C>::is_hierarchical } -> std::convertible_to<bool>;
      { combiner_traits<C>::max_threads } -> std::convertible_to<std::size_t>;
    };

}  // namespace ccds
