// P-Sim: the practical wait-free universal construction (Fatourou &
// Kallimanis, "A Highly-Efficient Wait-Free Universal Construction", SPAA
// 2011 — the wait-free member of the Synch framework, PPoPP 2012).
//
// Every other ccds combining engine is BLOCKING: a combiner preempted
// mid-episode stalls every spinning requester.  P-Sim removes the spin
// entirely.  The object's authoritative value is one atomic pointer to an
// immutable state cell; an operation is:
//
//   1. ANNOUNCE — publish a self-contained request record (op + sequence
//      number) in the caller's announce slot;
//   2. COPY-APPLY — read the current cell, build a private copy, apply
//      EVERY pending announced request (own and others') to the copy,
//      recording per-thread applied sequence numbers and result bytes
//      inside it;
//   3. SC — compare-and-swap the cell pointer from the observed cell to the
//      copy.  Success installs everyone's operations at once; failure means
//      some other thread's SC succeeded — at most TWO attempts later the
//      caller's request is guaranteed applied in the current cell (if our
//      second CAS fails, the SC that beat it loaded the pointer after our
//      first failed CAS, hence after our announce, so its copy-apply saw
//      our request), and the caller just reads its result out of the
//      current cell.  No step waits on another thread's schedule.
//
// The classic Sim construction manages its cells with a hand-rolled buffer
// pool and raw memcpy state; ccds instead builds the cell lifecycle on the
// library's own reclamation tier: cells and request records are immutable
// once published and retired through a blanket `reclaimer` domain
// (EpochDomain by default), so a helper can never read recycled memory and
// the whole engine is sound for arbitrary copy-constructible State — a
// deque, or a BatchedSkipState full of owning pointers — not just flat
// bytes.  The trade: operations allocate (the paper's bounded pool is
// traded for allocator-backed safety), so "wait-free" here is modulo
// malloc, and a stalled reader delays reclamation (EBR's usual cost), never
// progress.
//
// Requirements this surface places on operations, beyond the list engines':
//
//   * ops are COPIED into the announce record and may be RE-EXECUTED (each
//     time on a fresh copy of the op, against a different state copy;
//     helpers may run them even after the submitting call returned, against
//     a copy that loses its SC).  Capture by value; results must depend
//     only on (op, state).  The ccds fronts all comply.
//   * results and batch Op types must be trivially copyable (they travel
//     cell-to-cell as bytes) and at most max_align_t-aligned.
//
// apply_sorted_batch note: merging happens per-request (each batch is one
// apply_runs call on the helper's copy of the run, so the results it
// writes land in the copy).  Cross-submitter merging buys nothing under
// P-Sim: every episode re-copies the state anyway, and the union of pending
// batches still lands in one successful SC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arch.hpp"
#include "core/atomic.hpp"
#include "core/padded.hpp"
#include "core/thread_registry.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaim.hpp"
#include "sync/combiner.hpp"

namespace ccds {

template <typename State, reclaimer Domain = EpochDomain>
class PSim {
  // Helpers follow the current-cell pointer and every announce slot inside
  // ONE guard; only blanket domains protect everything reachable after the
  // pin (a pointer-based domain would need a slot per announce).
  static_assert(!reclaimer_traits<Domain>::pointer_based,
                "PSim requires a blanket (epoch/QSBR-style) domain");

 public:
  // Engine traits (sync/combiner.hpp): this is the library's wait-free
  // engine — no spin on another thread's flag anywhere in the protocol.
  static constexpr bool kIsWaitFree = true;
  static constexpr bool kIsHierarchical = false;
  static constexpr std::size_t kMaxEngineThreads = kMaxThreads;

  PSim() : PSim(State{}) {}

  explicit PSim(State initial) {
    // relaxed: constructor, pre-publication.
    cur_.store(new Cell(std::move(initial)), std::memory_order_relaxed);
  }

  PSim(const PSim&) = delete;
  PSim& operator=(const PSim&) = delete;

  ~PSim() {
    // Quiescent teardown: every apply returned, so every request record was
    // retired; the domain member's destructor drains them and the retired
    // cells.  Only the live cell remains ours to free.
    delete cur_.load(std::memory_order_relaxed);  // relaxed: quiescent teardown
  }

  // Execute `op(state)` wait-free; returns op's result.
  template <typename F>
  auto apply(F&& op) -> std::invoke_result_t<F&, State&> {
    using Fn = std::remove_reference_t<F>;
    using R = std::invoke_result_t<Fn&, State&>;
    static_assert(std::is_copy_constructible_v<Fn>,
                  "PSim ops are copied into the announce record");
    const std::size_t tid = thread_id();
    auto* req = new ScalarRequest<Fn>(std::forward<F>(op));
    req->seq = next_seq(tid);
    req->exec = &exec_scalar<Fn>;
    if constexpr (std::is_void_v<R>) {
      complete(tid, req, nullptr, 0);
      return;
    } else {
      static_assert(std::is_trivially_copyable_v<R> &&
                        alignof(R) <= alignof(std::max_align_t),
                    "PSim results travel between state cells as bytes");
      alignas(R) std::byte out[sizeof(R)];
      complete(tid, req, out, sizeof(R));
      return *std::launder(reinterpret_cast<R*>(out));
    }
  }

  // Direct exclusive access (initialization / inspection).  Installing a
  // cell is already a total serialization of operations, so this is apply.
  template <typename F>
  auto apply_locked(F&& op) -> std::invoke_result_t<F&, State&> {
    return apply(std::forward<F>(op));
  }

  // One announce, one episode, the whole span applied back-to-back with no
  // foreign op inside — the same batch-episode semantics CombinerBatchOps
  // gives the list engines, via a snapshot of the ops in the request record
  // (helpers may re-execute after this call returns; see header comment).
  // Results are copied back into the caller's ops from the installed cell.
  template <typename Op>
  void apply_batch(std::span<Op> ops) {
    if (ops.empty()) return;
    submit_batch<Op, /*Sorted=*/false>(ops);
  }

  // The sorted-run surface: one apply_runs call per request, on the
  // HELPER's copy of the run (results must land in the copy; the announced
  // record is shared and immutable).
  template <typename Op>
  void apply_sorted_batch(std::span<Op> ops) {
    if (ops.empty()) return;
    submit_batch<Op, /*Sorted=*/true>(ops);
  }

 private:
  struct Cell;

  // A self-contained announced request.  Immutable once published (the
  // release store of the announce slot), retired through the domain after
  // the submitter collects its result, so a lagging helper can always
  // dereference what it loaded from a slot inside its guard.  The domain's
  // deleter destroys through this base (retire() captures the static type),
  // so the destructor must be virtual or derived payloads (the op copy, a
  // batch's vector) would never be destroyed.
  struct RequestBase {
    virtual ~RequestBase() = default;
    std::uint64_t seq = 0;
    void (*exec)(const RequestBase* req, Cell& cell, std::size_t tid) =
        nullptr;
  };

  template <typename Fn>
  struct ScalarRequest : RequestBase {
    explicit ScalarRequest(Fn f) : op(std::move(f)) {}
    Fn op;
  };

  template <typename Op, bool Sorted>
  struct BatchRequest : RequestBase {
    std::vector<Op> ops;  // snapshot of the submitter's span
  };

  // The immutable state cell: a full copy of the sequential state plus, per
  // thread, the sequence number of its last applied request and that
  // request's result bytes.  Result bytes ride along from cell to cell
  // until overwritten — that is how a thread whose SC lost still finds its
  // result in whichever cell won.
  struct Cell {
    explicit Cell(State s) : state(std::move(s)) {}

    Cell(const Cell& o, std::size_t ceiling) : state(o.state) {
      for (std::size_t t = 0; t < ceiling; ++t) {
        applied[t] = o.applied[t];
        rbuf[t] = o.rbuf[t];
      }
    }

    State state;
    std::uint64_t applied[kMaxThreads] = {};
    std::vector<std::byte> rbuf[kMaxThreads];
  };

  struct CCDS_CACHELINE_ALIGNED AnnounceSlot {
    Atomic<RequestBase*> req{nullptr};
    std::uint64_t next_seq = 0;  // owner-only: the slot's request counter
  };

  template <typename Fn>
  static void exec_scalar(const RequestBase* base, Cell& cell,
                          std::size_t tid) {
    const auto* req = static_cast<const ScalarRequest<Fn>*>(base);
    using R = std::invoke_result_t<Fn&, State&>;
    // Fresh op copy per execution: helpers re-execute, and a mutable op
    // must never mutate the shared record.
    Fn op(req->op);
    if constexpr (std::is_void_v<R>) {
      op(cell.state);
    } else {
      cell.rbuf[tid].resize(sizeof(R));
      ::new (static_cast<void*>(cell.rbuf[tid].data())) R(op(cell.state));
    }
  }

  template <typename Op, bool Sorted>
  static void exec_batch(const RequestBase* base, Cell& cell,
                         std::size_t tid) {
    const auto* req = static_cast<const BatchRequest<Op, Sorted>*>(base);
    const std::size_t n = req->ops.size();
    cell.rbuf[tid].resize(n * sizeof(Op));
    // Trivially-copyable Op (asserted at submit): memcpy both copies the
    // values and starts their lifetimes in the byte buffer.
    std::memcpy(cell.rbuf[tid].data(), req->ops.data(), n * sizeof(Op));
    std::span<Op> run(reinterpret_cast<Op*>(cell.rbuf[tid].data()), n);
    if constexpr (Sorted) {
      detail::SortedRun sr{run.data(), run.size()};
      void* ctx = &sr;
      detail::run_merged_erased<State, Op>(&ctx, 1, cell.state);
    } else {
      for (Op& op : run) op(cell.state);
    }
  }

  template <typename Op, bool Sorted>
  void submit_batch(std::span<Op> ops) {
    static_assert(std::is_trivially_copyable_v<Op> &&
                      alignof(Op) <= alignof(std::max_align_t),
                  "PSim batch ops travel between state cells as bytes");
    const std::size_t tid = thread_id();
    auto* req = new BatchRequest<Op, Sorted>;
    req->ops.assign(ops.begin(), ops.end());
    req->seq = next_seq(tid);
    req->exec = &exec_batch<Op, Sorted>;
    complete(tid, req, reinterpret_cast<std::byte*>(ops.data()),
             ops.size() * sizeof(Op));
  }

  std::uint64_t next_seq(std::size_t tid) noexcept {
    return ++announce_[tid]->next_seq;
  }

  // Announce, attempt twice, collect, clean up.  After two failed SCs the
  // request is provably applied in the current cell (see header comment),
  // so the trailing collect loop runs at most once on any real schedule;
  // it is a loop only to stay robust, and it never waits on a flag.
  void complete(std::size_t tid, RequestBase* req, std::byte* out,
                std::size_t out_len) {
    // release: publish seq/exec/payload to helpers loading the slot.
    announce_[tid]->req.store(req, std::memory_order_release);
    bool done = false;
    for (int i = 0; i < 2 && !done; ++i) {
      done = attempt(tid, req->seq, out, out_len);
    }
    std::uint32_t spins = 0;
    while (!done) {
      spin_wait(spins);
      done = collect(tid, req->seq, out, out_len);
    }
    // Unlink before retiring (the standard discipline): a helper that
    // loaded the slot before this store holds a guard older than the
    // retirement, so the record outlives its read.
    announce_[tid]->req.store(nullptr, std::memory_order_release);
    domain_.retire(req);
  }

  // One copy-apply-SC episode.  True = the current (or just-installed) cell
  // carries our request's result, copied to `out`.
  bool attempt(std::size_t tid, std::uint64_t seq, std::byte* out,
               std::size_t out_len) {
    auto g = domain_.guard();
    // acquire: pairs with the installing CAS's release — the cell and
    // everything it references are immutable and fully visible.
    Cell* cur = cur_.load(std::memory_order_acquire);
    if (cur->applied[tid] >= seq) {
      copy_out(*cur, tid, out, out_len);
      return true;
    }
    const std::size_t ceiling = registered_ceiling();
    Cell* cand = new Cell(*cur, ceiling);
    for (std::size_t t = 0; t < ceiling; ++t) {
      // acquire: pairs with the announcing release store; the record is
      // immutable after it.
      RequestBase* r = announce_[t]->req.load(std::memory_order_acquire);
      if (r == nullptr || cand->applied[t] >= r->seq) continue;
      r->exec(r, *cand, t);
      cand->applied[t] = r->seq;
    }
    detail::preemption_point();
    // acq_rel on success: release publishes the candidate cell; acquire
    // orders the retirement of the displaced cell.  acquire on failure:
    // the winning cell is read below.
    if (cur_.compare_exchange_strong(cur, cand, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      domain_.retire(cur);
      copy_out(*cand, tid, out, out_len);
      return true;
    }
    delete cand;  // never published: ours to free directly
    // `cur` was reloaded by the failed CAS; the winner may already have
    // applied us.
    if (cur->applied[tid] >= seq) {
      copy_out(*cur, tid, out, out_len);
      return true;
    }
    return false;
  }

  bool collect(std::size_t tid, std::uint64_t seq, std::byte* out,
               std::size_t out_len) {
    auto g = domain_.guard();
    // acquire: see attempt().
    Cell* cur = cur_.load(std::memory_order_acquire);
    if (cur->applied[tid] < seq) return false;
    copy_out(*cur, tid, out, out_len);
    return true;
  }

  static void copy_out(const Cell& c, std::size_t tid, std::byte* out,
                       std::size_t out_len) {
    if (out_len == 0) return;
    CCDS_ASSERT(c.rbuf[tid].size() >= out_len);
    std::memcpy(out, c.rbuf[tid].data(), out_len);
  }

  CCDS_CACHELINE_ALIGNED Atomic<Cell*> cur_{nullptr};
  Padded<AnnounceSlot> announce_[kMaxThreads];
  // mutable-free: the domain outlives every cell/request it manages; its
  // destructor drains whatever is still retired (quiescent by then).
  Domain domain_;
};

}  // namespace ccds
