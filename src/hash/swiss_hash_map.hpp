// Swiss-table concurrent flat hash map: open addressing over 16-slot groups
// of inline key/value pairs, one byte of probe metadata per slot
// (core/group_probe.hpp), group-granular locking for writers, seqlock-style
// lock-free readers, and a cooperative striped rehash that migrates the old
// table through the reclamation layer instead of stopping the world.
//
// Layout.  The table is an array of 64-byte-aligned `Group`s.  Each group is
// one 64-byte metadata line — a combined seqlock/lock/migration version word
// plus 16 one-byte tags packed into two 64-bit words — followed by 16 inline
// (key, value) slots: four slot lines for 8-byte keys and values, 320 bytes
// in all.  A `get` touches the metadata line and one slot line, and the
// probe prefetches the first two slot lines alongside the metadata load, so
// a cold get costs one memory round trip rather than a per-node miss chain;
// that is what makes flat layouts dominate the chained maps on read-heavy
// mixes.  A group array of 2 MiB or more sits in huge pages
// (core/huge_pages.hpp), so a probe of a table larger than the TLB's reach
// does not also walk the page table.
//
// Version word (per group).  Bit 0 = writer lock; bit 1 = kMoved (group
// drained by rehash; contents dead); bit 2 = kTerminal (group contained an
// empty slot when drained — probe chains ended here); bits 3+ = seqlock
// generation, bumped on every mutating unlock.  Readers snapshot the word,
// read tags/slots with relaxed loads, and accept the snapshot only if the
// word is unchanged afterwards (same fence discipline as sync/seqlock.hpp,
// and UB/TSan-free for the same reason: every shared byte is an atomic).
//
// Probe invariant.  A key's groups are probed linearly from its home group.
// Lookups/inserts stop at the first group containing an EMPTY slot; erase
// writes a TOMB tag, never an EMPTY one, so the set of empty slots only
// ever shrinks within a table.  That monotonicity is the whole correctness
// argument for lock-free readers and duplicate-free inserts:
//   * a present key can never sit beyond the current first-empty group
//     (empties never appear in front of it after insertion), so a reader's
//     early stop is always justified;
//   * two racing inserts of the same key must both arrive at the same
//     terminal group and serialize on its lock (the second sees the first's
//     slot and updates in place).
// TOMB slots are reclaimed on reuse in the terminal group and wholesale at
// rehash; when tombstones (not live entries) are what filled the table, the
// rehash keeps the same size — a cooperative in-place purge — instead of
// doubling, so erase-heavy churn cannot balloon the table's cache reach.
//
// Cooperative rehash.  When occupancy crosses the growth threshold (or
// tombstone mass crosses the purge threshold) a writer installs a successor
// table — double-size if live entries fill half the current one, same-size
// otherwise — whose `old` pointer names the current one.
// From then on every writer (a) drains its own key's probe chain in the old
// table — moving those entries into the new table so the key's state lives
// in exactly one place before the write — and (b) migrates a fixed quantum
// of additional old groups, so the rebuild is striped across all writers
// and no thread ever stalls behind a full-table copy.  Readers probe old
// then new, skipping drained groups; the drained-group publication rides
// the same version word the seqlock already validates.  The fully-drained
// old table is retired through the Reclaimer (epoch by default), which is
// what makes the `old` pointer safe to chase without locks.
//
// Restrictions: Key and Value must be trivially copyable and at most 8
// bytes (they are stored in relaxed atomics so torn reads cannot exist even
// formally; this is also what keeps the map checkable under -DCCDS_MODEL=1,
// where every ccds::Atomic is the instrumented model shim).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "core/arch.hpp"
#include "core/atomic.hpp"
#include "core/group_probe.hpp"
#include "core/hash.hpp"
#include "core/huge_pages.hpp"
#include "core/padded.hpp"
#include "core/thread_registry.hpp"
#include "hash/hash_stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaim.hpp"

namespace ccds {

template <typename Key, typename Value, typename Hash = MixHash<Key>,
          reclaimer Reclaimer = EpochDomain>
class SwissHashMap {
  static_assert(!reclaimer_traits<Reclaimer>::pointer_based ||
                    Reclaimer::kSlots >= 2,
                "probes protect the table and its old predecessor");
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) <= 8,
                "SwissHashMap keys must be trivially copyable and <= 8 bytes");
  static_assert(std::is_trivially_copyable_v<Value> && sizeof(Value) <= 8,
                "SwissHashMap values must be trivially copyable and <= 8 "
                "bytes");

 public:
  explicit SwissHashMap(std::size_t initial_slots = 4 * kGroupSlots)
      : table_(new Table(groups_for(initial_slots))) {}

  SwissHashMap(const SwissHashMap&) = delete;
  SwissHashMap& operator=(const SwissHashMap&) = delete;

  ~SwissHashMap() {
    // relaxed: destruction is externally synchronized by contract.
    delete table_.load(std::memory_order_relaxed);
  }

  // Insert or overwrite.  Returns true iff the key was newly inserted
  // (same contract as the other ccds maps).
  bool insert(const Key& key, Value value) {
    const std::uint64_t h = hash_(key);
    auto guard = acquire_guard();
    for (;;) {
      Table* t = guard.protect(0, table_);
      if (Table* old_t = guard.protect(1, t->old)) {
        drain_probe_chain(old_t, t, h);
        help_migrate(t, old_t);
      }
      switch (write_in(t, h, key, value)) {
        case Wr::kInserted:
          bump_size(+1);
          maybe_grow(t);
          return true;
        case Wr::kUpdated:
          return false;
        case Wr::kFull:
          // Start (or finish helping) a rehash, then retry in the bigger
          // table.  If a migration is still draining, the next loop pass
          // migrates another quantum, so this converges.
          start_grow(t);
          continue;
        default:  // kStale: the table doubled under us; reload the root
          continue;
      }
    }
  }

  std::optional<Value> get(const Key& key) const {
    const std::uint64_t h = hash_(key);
    auto guard = acquire_guard();
    for (;;) {
      Table* t = guard.protect(0, table_);
      Value out{};
      // Probe old-then-new: an entry migrates old -> new under the old
      // group's lock, so a reader that misses it in the old table is
      // guaranteed (by the version-word acquire) to see it in the new one.
      if (Table* old_t = guard.protect(1, t->old)) {
        if (find_in(old_t, h, key, /*is_old=*/true, &out) == Probe::kFound) {
          return out;
        }
      }
      switch (find_in(t, h, key, /*is_old=*/false, &out)) {
        case Probe::kFound:
          return out;
        case Probe::kAbsent:
          return std::nullopt;
        default:  // kStale: a drained group in the current table means the
                  // root pointer moved on; restart with a fresh snapshot
          continue;
      }
    }
  }

  bool contains(const Key& key) const { return get(key).has_value(); }

  bool erase(const Key& key) {
    const std::uint64_t h = hash_(key);
    auto guard = acquire_guard();
    for (;;) {
      Table* t = guard.protect(0, table_);
      if (Table* old_t = guard.protect(1, t->old)) {
        drain_probe_chain(old_t, t, h);
        help_migrate(t, old_t);
      }
      switch (erase_in(t, h, key)) {
        case Wr::kErased:
          bump_size(-1);
          maybe_grow(t);  // tombstone mass can warrant a purge rehash
          return true;
        case Wr::kAbsent:
          return false;
        default:  // kStale
          continue;
      }
    }
  }

  // Exact at quiescence; consistent estimate while writers run.
  std::size_t size() const {
    long long total = 0;
    for (std::size_t i = 0; i < kSizeStripes; ++i) {
      // relaxed: striped statistic, no ordering against map contents.
      total += sizes_[i].value.load(std::memory_order_relaxed);
    }
    return total < 0 ? 0 : static_cast<std::size_t>(total);
  }

  // Slots in the current table (grows by doubling).
  std::size_t capacity() const {
    auto guard = acquire_guard();
    const Table* t = guard.protect(0, table_);
    return t->group_count * kGroupSlots;
  }

  bool rehash_in_progress() const {
    auto guard = acquire_guard();
    Table* t = guard.protect(0, table_);
    return t->old.load(std::memory_order_acquire) != nullptr;
  }

  // Force a doubling rehash to start (writers complete it cooperatively).
  // No-op if a migration is already in progress.
  void grow() {
    auto guard = acquire_guard();
    start_grow(guard.protect(0, table_), /*force_double=*/true);
  }

  Reclaimer& domain() noexcept { return domain_; }

 private:
  // Reads the current table's group array (layout tests).
  friend struct SwissHashMapAccess;

  // ---- layout ------------------------------------------------------------

  static constexpr std::uint64_t kLockedBit = 1;
  static constexpr std::uint64_t kMovedBit = 2;
  static constexpr std::uint64_t kTerminalBit = 4;
  static constexpr std::uint64_t kSeqStep = 8;

  // The metadata line is 64 bytes, not kCacheLineSize: its only writers are
  // the group's lock holders, who write the group's slots too, so there is
  // no independent writer for a wider pad to keep apart.
  static constexpr std::size_t kMetaLine = 64;

  struct alignas(kMetaLine) GroupHeader {
    Atomic<std::uint64_t> version{0};
    Atomic<std::uint64_t> tags[2] = {};
  };

  struct Slot {
    Atomic<Key> key{};
    Atomic<Value> value{};
  };

  struct Group {
    GroupHeader hdr;
    Slot slots[kGroupSlots];
  };

  static_assert(kHugePageSize % alignof(Group) == 0,
                "huge-page group arrays keep every group aligned");
#ifndef CCDS_MODEL  // model atomics are instrumented objects, not words
  static_assert(sizeof(GroupHeader) == kMetaLine,
                "version word and tags fill one metadata line");
  static_assert(sizeof(Slot) != 16 || sizeof(Group) == 320,
                "16-byte slots: one metadata line plus four slot lines");
#endif

  struct Table {
    const std::size_t group_count;  // power of two
    const std::size_t group_mask;
    const std::size_t grow_threshold;  // claimed slots triggering a double
    // The huge-page mapping under `groups` (core/huge_pages.hpp), or null
    // when `groups` came from new[]; ~Table frees through the matching path.
    void* const huge;
    Group* const groups;
    // Predecessor still being drained (null when no rehash in flight).
    // Retired through the Reclaimer once every group is migrated.
    // unpadded: old/migrate_next/migrated only see writes during a
    // migration window (rare and short); the hot-path insert counters
    // used/tombs are Padded off this line, which is what matters.
    Atomic<Table*> old{nullptr};
    // Next old-group index to claim for migration; may overshoot.
    Atomic<std::uint64_t> migrate_next{0};
    // Old groups fully drained (compared against group_count to detach).
    Atomic<std::uint64_t> migrated{0};
    // EMPTY slots claimed so far; tomb reuse does not count (a tomb was
    // already counted when first claimed).  Padded: bumped by every
    // fresh-key insert, keep it off the migration words' line.
    Padded<Atomic<std::uint64_t>> used{};
    // Live tombstones (erases minus tomb reuses).  used - tombs is the
    // exact live-entry count of this table, which start_grow uses to pick
    // between doubling and a same-size tombstone purge.
    Padded<Atomic<std::uint64_t>> tombs{};

    explicit Table(std::size_t n)
        : group_count(n),
          group_mask(n - 1),
          grow_threshold(n * kGroupSlots * 13 / 16),
          huge(huge_page_alloc(n * sizeof(Group))),
          groups(huge != nullptr ? construct_groups(huge, n) : new Group[n]) {}

    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    ~Table() {
      // relaxed: a table is only destroyed at map teardown (externally
      // synchronized) or unpublished after a lost install race.
      delete old.load(std::memory_order_relaxed);
      if (huge != nullptr) {
        std::destroy_n(groups, group_count);
        huge_page_free(huge, group_count * sizeof(Group));
      } else {
        delete[] groups;
      }
    }

    // Every group (and so every Atomic) is a live object, as with new[].
    static Group* construct_groups(void* mem, std::size_t n) {
      Group* const g = static_cast<Group*>(mem);
      std::uninitialized_default_construct_n(g, n);
      return g;
    }
  };

  enum class Probe { kFound, kAbsent, kStale };
  enum class Wr { kInserted, kUpdated, kErased, kAbsent, kFull, kStale };

  // Prefer the reclaimer's amortized read lease (EpochDomain::lease —
  // standing announcement, two cached loads per op) over a full guard.
  // Reclaimers without one (hazard pointers, leaky) fall back to guard().
  auto acquire_guard() const { return lease_of(domain_); }

  // Fetch the two slot lines that claim order fills first (slots 0-7 with
  // 16-byte slots) in parallel with the demand load of the metadata line,
  // before the dependent chain (version -> tags -> matching slot)
  // serializes them; a cold probe then costs one memory round trip.
  // Claims take the lowest free slot, so at the load factors the table
  // runs at (grown at 13/16, half full after a doubling) keys sit in slots
  // 0 to ~12, and fetching slots 0-3 alone leaves about half of all cold
  // gets a dependent second miss; on a 2^23-key table the second line cuts
  // the get p50 by ~10% (4-vCPU Xeon VM, EXPERIMENTS.md E22).  Not
  // fetched: the metadata line (its version load issues immediately after,
  // so a prefetch is a dead uop) and slots 8-15 (rarely reached).
  static void prefetch_group_ro(const Group& g) {
    const char* const s = reinterpret_cast<const char*>(g.slots);
    prefetch_ro(s);
    prefetch_ro(s + kMetaLine);
  }

  static void prefetch_group_rw(const Group& g) {
    const char* const s = reinterpret_cast<const char*>(g.slots);
    prefetch_rw(s);
    prefetch_rw(s + kMetaLine);
  }

  static std::size_t groups_for(std::size_t slots) {
    const std::size_t g = (slots + kGroupSlots - 1) / kGroupSlots;
    return static_cast<std::size_t>(next_pow2(g == 0 ? 1 : g));
  }

  // ---- group locking (writers) -------------------------------------------

  // Acquire the group's writer lock; returns the locked version word, or
  // nullopt (lock NOT taken) if the group has been drained by migration.
  std::optional<std::uint64_t> lock_group(Group& g) const {
    std::uint32_t spins = 0;
    // E19 stats: one episode per DISTINCT race lost, never per spin
    // iteration.  Every dirty unlock advances the seqlock generation
    // (version / kSeqStep), so the generation distance observed between
    // entering this loop and acquiring the lock is exactly the number of
    // writer sessions that completed while we waited — each one a real
    // race we lost.  Counting the distance (rather than "was I ever
    // blocked") makes the tally immune to the waiter itself being
    // descheduled: a waiter asleep through a convoy of k holders still
    // counts k on its next load, while a waiter spinning a whole quantum
    // behind one parked holder still counts 1.  (A clean unlock does not
    // bump the generation; losing to a no-op writer is conservatively
    // uncounted.)
    std::uint64_t seen_gen = std::uint64_t(-1);
    for (;;) {
      // acquire: pairs with the releasing unlock so the critical section
      // we enter sees the previous writer's slot/tag stores.
      std::uint64_t v = g.hdr.version.load(std::memory_order_acquire);
      const std::uint64_t gen = v / kSeqStep;
      if (seen_gen == std::uint64_t(-1)) {
        seen_gen = gen;
      } else if (gen > seen_gen) {
        HashStats::contended(gen - seen_gen);
        seen_gen = gen;
      }
      if (v & kMovedBit) return std::nullopt;
      if (v & kLockedBit) {
        spin_wait(spins);
        continue;
      }
      if (g.hdr.version.compare_exchange_weak(
              v, v | kLockedBit, std::memory_order_acquire,
              std::memory_order_relaxed)) {  // relaxed: failure just retries
        // release fence: the odd (locked) version word must become visible
        // before any payload store below — the load-bearing seqlock fence
        // that lets readers reject mid-write snapshots.
        ccds::atomic_thread_fence(std::memory_order_release);
        return v | kLockedBit;
      }
      // Lost the lock CAS to another writer: the winner's dirty unlock
      // bumps the generation, so the next load counts it; no separate
      // count here.
      spin_wait(spins);
    }
  }

  // Release the lock, optionally publishing migration state bits.  `dirty`
  // bumps the seqlock generation so concurrent readers discard snapshots.
  void unlock_group(Group& g, std::uint64_t locked_v, std::uint64_t set_bits,
                    bool dirty) const {
    std::uint64_t next = (locked_v & ~kLockedBit) | set_bits;
    if (dirty) next += kSeqStep;
    // release: publishes every tag/slot store of the critical section to
    // the next acquirer and to validating readers.
    g.hdr.version.store(next, std::memory_order_release);
  }

  void set_tag(Group& g, int slot, std::uint8_t tag) {
    Atomic<std::uint64_t>& word = g.hdr.tags[slot >> 3];
    const int shift = 8 * (slot & 7);
    // relaxed: tag words are mutated only under the group lock and
    // published by the unlock release store; readers discard torn
    // combinations via the version re-check.
    std::uint64_t w = word.load(std::memory_order_relaxed);
    w = (w & ~(0xffull << shift)) |
        (static_cast<std::uint64_t>(tag) << shift);
    word.store(w, std::memory_order_relaxed);  // relaxed: see above
  }

  // ---- lock-free read side -----------------------------------------------

  // Probe one table for `key`.  In an old (draining) table, kMoved groups
  // are skipped — their former contents are in the new table — and a moved
  // group that was terminal ends the chain.  In the current table a moved
  // group means this table was superseded while we probed: kStale.
  Probe find_in(const Table* t, std::uint64_t h, const Key& key, bool is_old,
                Value* out) const {
    const std::uint8_t tag = tag_of_hash(h);
    const std::size_t home = h & t->group_mask;
    for (std::size_t i = 0; i < t->group_count; ++i) {
      const Group& g = t->groups[(home + i) & t->group_mask];
      prefetch_group_ro(g);
      HashStats::probe();  // E19: one work unit per group visited
      std::uint32_t spins = 0;
      // E19 stats: one contention episode per DISTINCT writer session this
      // read collides with (same generation-distance discipline as
      // lock_group).  Every dirty unlock advances the generation, so the
      // distance between the first version load in this group and the one
      // that finally validates counts exactly the writer sessions that
      // raced this read — a torn snapshot, a waited-out writer, and a
      // convoy slept through all fall out of the same rule, and spin
      // iterations behind one parked writer still count once.
      std::uint64_t seen_gen = std::uint64_t(-1);
      for (;;) {  // per-group seqlock retry loop
        // acquire: tag/slot loads below cannot float above this snapshot.
        const std::uint64_t v1 =
            g.hdr.version.load(std::memory_order_acquire);
        const std::uint64_t gen = v1 / kSeqStep;
        if (seen_gen == std::uint64_t(-1)) {
          seen_gen = gen;
        } else if (gen > seen_gen) {
          HashStats::contended(gen - seen_gen);
          seen_gen = gen;
        }
        if (v1 & kLockedBit) {  // writer in the group; wait it out
          spin_wait(spins);
          continue;
        }
        if (v1 & kMovedBit) {
          if (!is_old) return Probe::kStale;
          if (v1 & kTerminalBit) return Probe::kAbsent;
          break;  // drained mid-chain group: probe the next one
        }
        // relaxed: ordered collectively by the acquire above and the
        // acquire fence below; torn snapshots fail the version re-check.
        const std::uint64_t w0 =
            g.hdr.tags[0].load(std::memory_order_relaxed);
        const std::uint64_t w1 =
            g.hdr.tags[1].load(std::memory_order_relaxed);
        std::uint32_t m = group_match_tag(w0, w1, tag);
        bool found = false;
        Value val{};
        while (m != 0) {
          const int s = group_first_slot(m);
          m = group_clear_lowest(m);
          // relaxed (both): same seqlock discipline as the tag words.  The
          // value is loaded unconditionally — before the key compare
          // resolves — so the two same-line loads issue in parallel instead
          // of the value load waiting out a dependent branch; a mismatched
          // candidate just discards it.
          const Key k = g.slots[s].key.load(std::memory_order_relaxed);
          const Value v = g.slots[s].value.load(std::memory_order_relaxed);
          if (k == key) {
            val = v;
            found = true;
            break;
          }
        }
        // acquire fence: every relaxed load above completes before the
        // version re-check; with the writer's post-lock release fence this
        // guarantees a matching re-check implies an untorn snapshot.
        ccds::atomic_thread_fence(std::memory_order_acquire);
        if (g.hdr.version.load(std::memory_order_relaxed) != v1) {  // relaxed: the fence orders it
          // Torn snapshot: a writer raced this read.  Its dirty unlock
          // bumped the generation, so the retry's reload counts it.
          spin_wait(spins);
          continue;  // torn: retry this group
        }
        if (found) {
          *out = val;
          return Probe::kFound;
        }
        // Derived from the validated w0/w1 snapshot; computed only on the
        // miss path so the common found path skips the extra byte scan.
        if (group_match_empty(w0, w1) != 0) {
          return Probe::kAbsent;  // probe chain ends here
        }
        break;  // full group without the key: continue the chain
      }
    }
    return Probe::kAbsent;  // walked every group (pathological fill)
  }

  // ---- locked write side -------------------------------------------------

  Wr write_in(Table* t, std::uint64_t h, const Key& key, const Value& value) {
    const std::uint8_t tag = tag_of_hash(h);
    const std::size_t home = h & t->group_mask;
    for (std::size_t i = 0; i < t->group_count; ++i) {
      Group& g = t->groups[(home + i) & t->group_mask];
      prefetch_group_rw(g);
      const auto lv = lock_group(g);
      if (!lv) return Wr::kStale;  // current table drained under us
      // E19: probe counted inside the critical section so an injected stall
      // parks this writer while it holds the group lock — the interleaving
      // that makes shared-map contention visible on a 1-CPU host.
      HashStats::probe();
      // relaxed: we hold the group lock; the lock CAS acquired the previous
      // writer's stores and our unlock will publish ours.
      const std::uint64_t w0 = g.hdr.tags[0].load(std::memory_order_relaxed);
      const std::uint64_t w1 = g.hdr.tags[1].load(std::memory_order_relaxed);
      std::uint32_t m = group_match_tag(w0, w1, tag);
      while (m != 0) {
        const int s = group_first_slot(m);
        m = group_clear_lowest(m);
        if (g.slots[s].key.load(std::memory_order_relaxed) == key) {  // relaxed: lock held
          g.slots[s].value.store(value, std::memory_order_relaxed);  // relaxed: lock held
          unlock_group(g, *lv, 0, /*dirty=*/true);
          return Wr::kUpdated;
        }
      }
      const std::uint32_t empty = group_match_empty(w0, w1);
      if (empty != 0) {
        // Terminal group: the key is nowhere in the table (the probe
        // invariant says no key can live beyond the first empty-bearing
        // group), so claim a slot — reuse a tomb first, else an empty.
        const std::uint32_t tombs = group_match_tag(w0, w1, kTagTomb);
        const int s = tombs != 0 ? group_first_slot(tombs)
                                 : group_first_slot(empty);
        g.slots[s].key.store(key, std::memory_order_relaxed);    // relaxed: lock held
        g.slots[s].value.store(value, std::memory_order_relaxed);  // relaxed: lock held
        set_tag(g, s, tag);
        unlock_group(g, *lv, 0, /*dirty=*/true);
        if (tombs == 0) {
          // relaxed: occupancy heuristic feeding maybe_grow; no ordering.
          t->used.value.fetch_add(1, std::memory_order_relaxed);
        } else {
          // relaxed: same heuristic counter as `used`.
          t->tombs.value.fetch_sub(1, std::memory_order_relaxed);
        }
        return Wr::kInserted;
      }
      unlock_group(g, *lv, 0, /*dirty=*/false);  // full group: keep walking
    }
    return Wr::kFull;
  }

  Wr erase_in(Table* t, std::uint64_t h, const Key& key) {
    const std::uint8_t tag = tag_of_hash(h);
    const std::size_t home = h & t->group_mask;
    for (std::size_t i = 0; i < t->group_count; ++i) {
      Group& g = t->groups[(home + i) & t->group_mask];
      prefetch_group_rw(g);
      const auto lv = lock_group(g);
      if (!lv) return Wr::kStale;
      HashStats::probe();  // E19: in-lock, same rationale as write_in
      // relaxed: group lock held (see write_in).
      const std::uint64_t w0 = g.hdr.tags[0].load(std::memory_order_relaxed);
      const std::uint64_t w1 = g.hdr.tags[1].load(std::memory_order_relaxed);
      std::uint32_t m = group_match_tag(w0, w1, tag);
      while (m != 0) {
        const int s = group_first_slot(m);
        m = group_clear_lowest(m);
        if (g.slots[s].key.load(std::memory_order_relaxed) == key) {  // relaxed: lock held
          // Tombstone, never empty: empties may only shrink, or probe
          // chains of keys placed further along would break.
          set_tag(g, s, kTagTomb);
          unlock_group(g, *lv, 0, /*dirty=*/true);
          // relaxed: heuristic counter feeding the purge trigger.
          t->tombs.value.fetch_add(1, std::memory_order_relaxed);
          return Wr::kErased;
        }
      }
      const bool has_empty = group_match_empty(w0, w1) != 0;
      unlock_group(g, *lv, 0, /*dirty=*/false);
      if (has_empty) return Wr::kAbsent;
    }
    return Wr::kAbsent;
  }

  // ---- cooperative rehash ------------------------------------------------

  static constexpr int kMigrateQuantum = 8;  // old groups per writer op

  void maybe_grow(Table* t) {
    // Two triggers: claimed slots near capacity (grow or purge, start_grow
    // decides which), or tombstones wasting an eighth of the table —
    // erase-heavy churn degrades probe chains long before the claimed-slot
    // threshold fires, so purge on tombstone mass alone.  An eighth keeps
    // the purge cheap relative to the churn that produced it while holding
    // effective occupancy well under the point where probe chains start
    // spilling past the home group.
    // relaxed (both): heuristic reads; a stale value merely starts the
    // (idempotent, already-needed) rehash one trigger late or early.
    if (t->used.value.load(std::memory_order_relaxed) >= t->grow_threshold ||
        t->tombs.value.load(std::memory_order_relaxed) >=
            t->group_count * kGroupSlots / 8) {
      start_grow(t);
    }
  }

  void start_grow(Table* t, bool force_double = false) {
    // unguarded: `t` is pinned by the caller's operation guard (every
    // mutating op holds one across maybe_grow/grow before calling here).
    // One migration at a time: finish draining before doubling again.
    if (t->old.load(std::memory_order_acquire) != nullptr) return;
    if (table_.load(std::memory_order_acquire) != t) return;  // superseded
    // Doubling a table whose occupancy is mostly tombstones just halves the
    // load factor of an already-sparse table and doubles the cache reach of
    // every probe; what such a table needs is a same-size rehash that drops
    // the tombstones (drain_group copies live entries only).  Double only
    // when live entries alone fill half the table.
    // relaxed (both): heuristic counters; a racy read picks a size one
    // doubling off, which the next trigger corrects.
    const std::uint64_t live =
        t->used.value.load(std::memory_order_relaxed) -
        t->tombs.value.load(std::memory_order_relaxed);
    const bool dbl =
        force_double || live * 2 >= t->group_count * kGroupSlots;
    Table* bigger = new Table(t->group_count * (dbl ? 2 : 1));
    // relaxed, unguarded: `bigger` is thread-private until the CAS below
    // publishes it (and `t` is pinned by the caller's guard, see above).
    bigger->old.store(t, std::memory_order_relaxed);
    Table* expected = t;
    if (!table_.compare_exchange_strong(
            expected, bigger, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {  // relaxed: lost race, no ordering
      // Another thread installed a table first; ours was never visible.
      // relaxed, unguarded: never-published private table.
      bigger->old.store(nullptr, std::memory_order_relaxed);
      delete bigger;
    }
  }

  // Move every live entry of old group `g` into `t` and mark it moved.
  // Returns true iff this call performed the transition.
  bool drain_group(Table* t, Group& g) {
    const auto lv = lock_group(g);
    if (!lv) return false;  // already drained
    // relaxed: group lock held.
    const std::uint64_t w0 = g.hdr.tags[0].load(std::memory_order_relaxed);
    const std::uint64_t w1 = g.hdr.tags[1].load(std::memory_order_relaxed);
    std::uint32_t full = ~group_match_free(w0, w1) & 0xffffu;
    while (full != 0) {
      const int s = group_first_slot(full);
      full = group_clear_lowest(full);
      const Key k = g.slots[s].key.load(std::memory_order_relaxed);    // relaxed: lock held
      const Value v = g.slots[s].value.load(std::memory_order_relaxed);  // relaxed: lock held
      // Inserting while holding the old group's lock is deadlock-free:
      // lock order is always old-table -> new-table, and write_in holds at
      // most one new-table lock at a time.  The entry cannot already exist
      // in `t` (writers drain a key's old chain before touching `t`), and
      // `t` cannot be full (it has twice the capacity and growth triggers
      // at 13/16) — both enforced below.
      const Wr r = write_in(t, hash_(k), k, v);
      CCDS_ASSERT(r == Wr::kInserted);
    }
    // Publish the drained state.  Terminal records whether probe chains
    // ended here pre-drain, which old-table walkers still rely on.
    const bool terminal = group_match_empty(w0, w1) != 0;
    unlock_group(g, *lv, kMovedBit | (terminal ? kTerminalBit : 0),
                 /*dirty=*/true);
    return true;
  }

  // Before writing key h into the new table, empty the key's entire probe
  // chain in the old one so no stale copy can survive (or be migrated over
  // a fresher value later).
  void drain_probe_chain(Table* old_t, Table* t, std::uint64_t h) {
    const std::size_t home = h & old_t->group_mask;
    for (std::size_t i = 0; i < old_t->group_count; ++i) {
      Group& g = old_t->groups[(home + i) & old_t->group_mask];
      // acquire: a moved group's terminal bit decides chain termination,
      // and must be read no earlier than the drainer's publication.
      std::uint64_t v = g.hdr.version.load(std::memory_order_acquire);
      if (!(v & kMovedBit)) {
        if (drain_group(t, g)) {
          // acq_rel: the detach CAS in help_migrate must observe this
          // increment no earlier than the drain it counts.
          old_t->migrated.fetch_add(1, std::memory_order_acq_rel);
        }
        v = g.hdr.version.load(std::memory_order_acquire);  // re-read: now moved
      }
      if (v & kTerminalBit) return;  // chain ends at this group
    }
  }

  // Claim and drain a quantum of old groups, then detach + retire the old
  // table once every group is migrated.
  void help_migrate(Table* t, Table* old_t) {
    const std::uint64_t n = old_t->group_count;
    for (int q = 0; q < kMigrateQuantum; ++q) {
      // relaxed: the cursor only partitions work; the moved bit under the
      // group lock is what makes each drain exactly-once.
      const std::uint64_t idx =
          old_t->migrate_next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= n) break;
      if (drain_group(t, old_t->groups[idx])) {
        // acq_rel: see drain_probe_chain.
        old_t->migrated.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    // acquire: pairs with the drainers' acq_rel increments so the retire
    // happens-after every group's migration completed.
    // unguarded: `t` (and through it `old_t`) is pinned by the caller's
    // operation guard for the duration of help_migrate.
    if (old_t->migrated.load(std::memory_order_acquire) == n) {
      Table* expected = old_t;
      if (t->old.compare_exchange_strong(
              expected, nullptr, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {  // relaxed: already detached
        domain_.retire(old_t);
      }
    }
  }

  // ---- size accounting ---------------------------------------------------

  static constexpr std::size_t kSizeStripes = 32;

  void bump_size(long long d) {
    // relaxed: striped statistic, summed without ordering in size().
    sizes_[thread_id() & (kSizeStripes - 1)].value.fetch_add(
        d, std::memory_order_relaxed);
  }

  // ---- members -----------------------------------------------------------

  CCDS_CACHELINE_ALIGNED Atomic<Table*> table_;
  Padded<Atomic<long long>> sizes_[kSizeStripes] = {};
  mutable Reclaimer domain_;
  [[no_unique_address]] Hash hash_{};
};

}  // namespace ccds
