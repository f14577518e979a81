// The lock manager (§4.2, §4.3).
//
// One manager instance serves one parallel engine run. It implements both
// protocols behind the same interface:
//
//  * kTwoPhase — all conflicts block; strict 2PL (locks released only at
//    Release, i.e. commit/abort time).
//  * kRcRaWa  — Table 4.1: a Wa request is granted even while other
//    transactions hold Rc on the object. The debt is settled at commit:
//    CollectRcVictims() returns every transaction whose outstanding Rc
//    lock conflicts with the committer's Wa set, and the engine aborts
//    (or revalidates) them — the paper's rules (i)/(ii) of §4.3.
//
// Like the paper's, the lock table is centralized: one table behind one
// mutex + condition variable holds every bucket, the per-relation
// summaries and the waits-for graph. Two things keep the common case off
// that mutex:
//
//  * A *lock-free grant fast path* (DESIGN.md §4.1): the table carries an
//    array of FastSlots — an atomic mode-word (granted-count per mode + a
//    sealed bit) plus a small array of holder entries — and an
//    uncontended tuple/intent Acquire is one CAS on the mode-word, never
//    touching the table mutex. The slow path *seals* a slot (sets the
//    mode-word's sealed bit and drains in-flight fast operations)
//    whenever it has any interest in it — a waiter, a bucket hold, an
//    in-progress slow acquire — so a fast grant can never race a waiter's
//    wakeup or an exact conflict check. Relation-level requests, which
//    must see every tuple hold of their relation, raise a per-relation
//    guard counter instead; fast grants re-check the guard after their
//    CAS (a store-buffering/Dekker pair), so either the fast grant becomes
//    visible to the relation-level scan or it observes the guard and
//    retreats to the slow path.
//  * Transaction state lives in a separately striped registry; the
//    aborted/blocking flags are atomics so commit-time victimization and
//    chaos-injected aborts never touch the lock table.
//
// Every wait, cycle check and waits-for edge registration runs under the
// table mutex, so a cycle check always sees every registered edge.
// CollectRcVictims sweeps the committer's Wa set under the same mutex;
// the result is stable because Rc-vs-Wa is incompatible in Table 4.1: no
// *new* conflicting Rc can be granted while the committer still holds
// its Wa locks (a fast Wa in the mode-word blocks fast Rc grants on its
// slot the same way a sealed slot does).
//
// Hierarchy: a tuple-level request also checks the relation-level bucket
// of its relation, and a relation-level request checks the per-relation
// summary of tuple-level holds, so escalated (negation) locks conflict
// correctly with tuple writes and insert intents.
//
// Deadlocks: a waits-for graph is maintained while transactions block;
// the requester that would close a cycle is chosen as victim and gets
// kDeadlock. (The non-exclusive Rc lock introduces no new deadlock kinds —
// §4.3 — so this standard scheme suffices for both protocols.) Fast
// grants never wait, so deadlock detection engages exclusively on the
// slow path.

#ifndef DBPS_LOCK_LOCK_MANAGER_H_
#define DBPS_LOCK_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lock/lock_types.h"
#include "util/status.h"

namespace dbps {

/// \brief Observable lock-manager events (used by the figure-4.2 trace
/// bench and by tests).
struct LockEvent {
  enum class Kind : uint8_t {
    kGrant,
    kBlock,     // request found a conflict and is waiting
    kDeadlock,  // requester chosen as deadlock victim
    kAbortMark, // transaction marked aborted (Rc–Wa commit rule)
    kRelease,   // all locks of a transaction released
  };
  Kind kind;
  TxnId txn;
  LockObjectId object;  // meaningless for kRelease
  LockMode mode;        // meaningless for kRelease / kAbortMark
  std::string ToString() const;
};

class LockManager {
 public:
  struct Options {
    LockProtocol protocol = LockProtocol::kRcRaWa;
    /// Upper bound on a single wait; expiring yields kLockTimeout.
    std::chrono::milliseconds wait_timeout{10000};
    /// Optional event sink. Contract: events are buffered inside the
    /// manager's critical sections and emitted only after every internal
    /// lock has been dropped, so the sink may block, take its own locks,
    /// and even call back into the manager. It may be invoked
    /// concurrently from different threads; events of one thread arrive
    /// in that thread's order, but there is no total order across
    /// threads. Sinks shared by concurrent transactions must synchronize
    /// internally.
    std::function<void(const LockEvent&)> trace;
  };

  /// The lock table's contention counters. There is one table, so
  /// Stats::shards always holds exactly one of these; it stays a vector
  /// of per-table structs only because the benchmark harness under
  /// perfbench/ reads `shards[i].acquires` and `shards[i].hold_ns`. A
  /// change to the benchmark may flatten them into Stats.
  struct ShardStats {
    uint64_t acquires = 0;  ///< slow-path grants (incl. re-acquires)
    uint64_t waits = 0;     ///< requests that blocked at least once
    /// Table-mutex acquisitions that found the mutex already held (a
    /// try_lock failed first) — the direct measure of table contention.
    uint64_t mutex_contentions = 0;
    /// Total table-mutex hold time of non-blocking acquires, nanoseconds.
    /// (Blocking acquires park on the table condvar and are excluded;
    /// they are counted in `waits` instead.)
    uint64_t hold_ns = 0;
    /// Grants served by the lock-free CAS fast path (no table mutex).
    uint64_t fast_path_grants = 0;
    /// Failed mode-word CAS attempts that were retried (fast-path churn).
    uint64_t fast_path_cas_retries = 0;
  };

  struct Stats {
    uint64_t acquired = 0;
    uint64_t blocked = 0;    // requests that waited at least once
    uint64_t deadlocks = 0;  // requests refused for closing a cycle
    /// Aborts injected by the `lock.acquire.wound` chaos site.
    uint64_t wounds = 0;
    uint64_t timeouts = 0;
    /// Waits that reached wait_timeout, whether or not the conflict had
    /// cleared by then. Every conflict clears with a wake-up (Release,
    /// MarkAborted), so outside a real timeout this stays 0; a nonzero
    /// count with no matching `timeouts` is a lost wake-up.
    uint64_t expired_waits = 0;
    uint64_t aborts_marked = 0;
    /// Release calls naming an unknown (never begun or already released)
    /// transaction — tolerated as no-ops but counted, since a nonzero
    /// value usually means a caller double-released.
    uint64_t unknown_releases = 0;
    /// Transactions escalated to blocking (2PL-style) acquisition.
    uint64_t blocking_txns = 0;
    /// The fast-path counters (the same values as shards[0]'s).
    uint64_t fast_path_grants = 0;
    uint64_t fast_path_cas_retries = 0;
    /// Exactly one entry: the lock table's (see ShardStats).
    std::vector<ShardStats> shards;
  };

  explicit LockManager(Options options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  LockProtocol protocol() const { return options_.protocol; }

  /// Starts a transaction (one production firing).
  TxnId Begin();

  /// Acquires `mode` on `object` for `txn`; blocks on conflicts.
  /// Returns kDeadlock if the wait would close a waits-for cycle,
  /// kAborted if the transaction was marked aborted (now or while
  /// waiting), kLockTimeout on wait-timeout. Re-acquiring a mode already
  /// held is cheap and always succeeds.
  Status Acquire(TxnId txn, LockObjectId object, LockMode mode);

  /// The Rc–Wa settlement (kRcRaWa commit): every other live transaction
  /// holding an Rc lock that conflicts with `txn`'s Wa set —
  ///   * Rc on the same tuple a Wa names,
  ///   * relation-level Rc in a relation where `txn` holds any Wa
  ///     (tuple write or insert intent),
  ///   * tuple-level Rc in a relation where `txn` holds relation-level Wa.
  /// Under kTwoPhase this is always empty (conflicts blocked earlier).
  /// The result is stable until `txn` releases its Wa locks (Rc-vs-Wa is
  /// incompatible, so no new conflicting Rc can be granted meanwhile).
  std::vector<TxnId> CollectRcVictims(TxnId txn) const;

  /// Marks `txn` aborted: its blocked and future Acquires fail with
  /// kAborted. The engine decides when to actually roll back (discard the
  /// delta) and Release. Safe to call from a trace sink (sinks run
  /// outside all manager locks).
  void MarkAborted(TxnId txn);

  bool IsAborted(TxnId txn) const;

  /// Starvation escalation (the progress guarantee behind the Rc/Ra/Wa
  /// scheme's known livelock: an Rc holder can be victimized by
  /// committing writers forever). A blocking transaction acquires and
  /// holds its locks under the kTwoPhase compatibility matrix even when
  /// the manager runs kRcRaWa: a Wa is no longer granted over its Rc (the
  /// writer waits instead), it waits behind outstanding Wa holders, and
  /// CollectRcVictims never names it. Call right after Begin, before the
  /// transaction acquires any lock. (A blocking transaction never uses
  /// the fast path, and — because it must be set before any lock is
  /// acquired — a fast-path holder can never *become* blocking, which is
  /// what lets a fast Wa-over-Rc grant skip the blocking-holder check.)
  void SetBlocking(TxnId txn);

  bool IsBlocking(TxnId txn) const;

  /// Releases every lock of `txn` and forgets it. Wakes waiters. Calling
  /// it for an unknown or already-released transaction is a safe no-op
  /// (counted in Stats::unknown_releases).
  void Release(TxnId txn);

  /// True iff `txn` currently holds `mode` on `object` (tests).
  bool Holds(TxnId txn, LockObjectId object, LockMode mode) const;

  /// Number of live (begun, unreleased) transactions.
  size_t live_transactions() const;

  Stats GetStats() const;

  // --- Fast-path geometry (tests/benches) ---------------------------------

  /// Fast-path slots; objects map to slots by hash, so distinct
  /// objects may share a slot (sharing is only a performance effect: a
  /// slot aggregates the mode counts of every object hashing to it, which
  /// can make a fast grant fall back to the slow path, never the
  /// reverse).
  static constexpr size_t kFastSlots = 256;
  /// Holder entries per fast slot: at most this many distinct
  /// transactions can hold fast grants in one slot at once; overflow
  /// falls back to the slow path.
  static constexpr size_t kFastHolderSlots = 4;
  /// Relation-guard counters (relation-level slow-path activity hashes
  /// here; a raised guard routes the relation's tuple acquires to the
  /// slow path).
  static constexpr size_t kRelGuards = 64;

  /// The fast slot `object` maps to (tests).
  static size_t FastSlotIndex(const LockObjectId& object);

 private:
  using ModeCounts = std::array<uint32_t, kNumLockModes>;

  /// A transaction's hold on one object, split by grant path. `fast` is
  /// component-wise <= `counts`; the difference is the slow-path (bucket)
  /// part. Fast counts are mirrored in the object's FastSlot mode-word,
  /// slow counts in the table's bucket (and relation summary).
  struct HoldCounts {
    ModeCounts counts{};  ///< total grants per mode
    ModeCounts fast{};    ///< fast-path grants per mode
  };

  struct Bucket {
    std::unordered_map<TxnId, ModeCounts> holds;
  };

  /// One lock-free grant slot: `word` packs a 20-bit granted count per
  /// mode (bit 0 = Rc, 20 = Ra, 40 = Wa) plus the sealed bit (bit 63);
  /// `holders` are (txn << 16 | count) entries, `count` being the txn's
  /// total fast grants in this slot across modes and objects. Invariant:
  /// sum(holder counts) <= sum(word counts), with equality exactly when
  /// no fast operation is in flight — which is what DrainSlot spins on.
  struct FastSlot {
    std::atomic<uint64_t> word{0};
    std::array<std::atomic<uint64_t>, kFastHolderSlots> holders{};
  };

  /// The lock table. `mu` guards `buckets`, `relation_summaries`,
  /// `seal_refs`, `waits_for` and `stats`; `cv` parks blocked requests.
  /// The fast-path members are atomics touched without `mu`.
  struct Table {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockObjectId, Bucket, LockObjectIdHash> buckets;
    /// Per relation: tuple/insert-level *slow-path* holds summary (for
    /// relation-level conflict checks), txn -> mode counts. Fast holds
    /// are found through the FastSlot holder entries instead.
    std::unordered_map<SymbolId, std::unordered_map<TxnId, ModeCounts>>
        relation_summaries;
    /// Waits-for edges of currently blocked requesters (deadlock
    /// detection; touched only when a request blocks).
    std::unordered_map<TxnId, std::vector<TxnId>> waits_for;
    ShardStats stats;
    /// The lock-free grant slots (see FastSlot).
    std::array<FastSlot, kFastSlots> fast;
    /// Slow-path interest per fast slot (guarded by mu): in-progress slow
    /// acquires targeting the slot + bucket (object, txn) pairs of
    /// tuple/intent objects living in it. Nonzero <=> slot sealed.
    std::array<uint32_t, kFastSlots> seal_refs{};
    /// Relation-level slow-path activity per relation hash (atomic: read
    /// by the fast path without mu): in-progress relation-level acquires
    /// + one count per granted relation-level lock. Nonzero routes the
    /// relation's tuple/intent acquires to the slow path.
    std::array<std::atomic<uint32_t>, kRelGuards> rel_guards{};
    std::atomic<uint64_t> fast_grants{0};
    std::atomic<uint64_t> fast_cas_retries{0};
  };

  struct TxnState {
    /// Set by conflicting committers (Rc–Wa rule) and injected aborts; read on
    /// every Acquire. Atomic so marking never touches the lock table.
    std::atomic<bool> aborted{false};
    /// 2PL-style acquisition (starvation escalation); see SetBlocking.
    std::atomic<bool> blocking{false};
    /// Guards `holds`. Normally only the owning thread touches it, but
    /// Holds()/Release() and fast-path conflict inspection may be called
    /// cross-thread, so it is locked. Lock order is table mu -> state.mu
    /// (leaf); it is never held while taking the table mutex.
    mutable std::mutex mu;
    /// object -> per-mode hold counts (total + fast split). A fast
    /// acquire publishes its tentative hold here *before* its mode-word
    /// CAS, so an inspector that observed the word increment always finds
    /// the record; the cost is that an inspector may see a hold whose CAS
    /// then fails (indistinguishable from a grant-then-release — sound).
    std::unordered_map<LockObjectId, HoldCounts, LockObjectIdHash> holds;
  };
  using TxnPtr = std::shared_ptr<TxnState>;

  /// One stripe of the transaction registry (txn-id -> state).
  struct TxnStripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, TxnPtr> txns;
  };
  static constexpr size_t kTxnStripes = 16;

  /// Buffers trace events inside critical sections; flushes to the sink
  /// at destruction, after the caller has dropped every internal lock.
  /// Declare one *before* any lock guard so it flushes after unlock.
  class TraceBuffer {
   public:
    explicit TraceBuffer(const LockManager* lm) : lm_(lm) {}
    TraceBuffer(const TraceBuffer&) = delete;
    TraceBuffer& operator=(const TraceBuffer&) = delete;
    ~TraceBuffer() {
      for (const LockEvent& event : events_) lm_->options_.trace(event);
    }
    void Add(LockEvent::Kind kind, TxnId txn, const LockObjectId& object,
             LockMode mode) {
      if (lm_->options_.trace) events_.push_back(LockEvent{kind, txn, object, mode});
    }

   private:
    const LockManager* lm_;
    std::vector<LockEvent> events_;
  };

  class SlowAcquireRef;  // RAII for slow-path seal/guard bookkeeping

  static size_t RelGuardIndex(SymbolId relation);

  TxnPtr FindTxn(TxnId txn) const;
  /// Removes `txn` from the registry and returns its state (null if
  /// unknown).
  TxnPtr TakeTxn(TxnId txn);

  /// True iff `txn` is live and escalated to blocking.
  bool IsBlockingTxn(TxnId txn) const;

  // --- Lock-free fast path ------------------------------------------------

  /// The optimistic CAS grant: publishes a tentative hold, CASes the
  /// slot's mode-word if the request is compatible with every granted
  /// mode (Table 4.1, including Wa-over-Rc under kRcRaWa) and the slot is
  /// unsealed, re-checks the relation guard (Dekker), and claims a holder
  /// entry. Any failure retracts everything and reports false (fall back
  /// to the slow path). Never blocks, never takes the table mutex.
  bool TryFastAcquire(const TxnPtr& state, TxnId txn,
                      const LockObjectId& object, LockMode mode);

  /// Registers/unregisters slow-path interest in a fast slot (both
  /// require table_.mu). The 0->1 transition seals the slot and drains
  /// in-flight fast operations; the 1->0 transition unseals it.
  void AddSealRef(size_t slot_index);
  void DropSealRef(size_t slot_index);

  /// Spins until the slot's holder entries account for every mode-word
  /// count — i.e. no fast operation is in flight. Callers must have cut
  /// off new *conflicting* grants first (sealed slot, raised relation
  /// guard, or an incompatible mode held), or the spin may be unbounded.
  static void DrainSlot(const FastSlot& slot);

  /// Claims (or increments) `txn`'s holder entry in `slot`; false when
  /// the entry table is full or the per-entry count saturated.
  static bool ClaimFastHolder(FastSlot& slot, TxnId txn);
  /// Decrements `txn`'s holder entry by `count`, freeing it at zero.
  static void ReleaseFastHolder(FastSlot& slot, TxnId txn, uint64_t count);

  /// Fast holders of `object` that conflict with (txn, mode) — inspects
  /// each holder entry's transaction record for its exact holds on
  /// `object`. Requires the slot sealed + drained (slow path) so no
  /// grant is in flight.
  void CollectFastObjectConflicts(const FastSlot& slot, TxnId txn,
                                  bool requester_blocking,
                                  const LockObjectId& object, LockMode mode,
                                  std::vector<TxnId>* out) const;

  /// Fast holders anywhere in `relation` that conflict with a
  /// relation-level (txn, mode) request. Requires the relation guard
  /// raised (no new fast grant in the relation can land); drains each
  /// active slot before enumerating it.
  void CollectFastRelationConflicts(TxnId txn, bool requester_blocking,
                                    SymbolId relation, LockMode mode,
                                    std::vector<TxnId>* out) const;

  /// Conflicting holders within one bucket under the protocol rules.
  /// `requester_blocking` caches the requester's escalation state.
  /// Requires table_.mu.
  void CollectBucketConflicts(const Bucket& bucket, TxnId txn,
                              bool requester_blocking, LockMode mode,
                              std::vector<TxnId>* out) const;

  /// All transactions (other than `txn`) whose holds on relevant buckets
  /// — or fast slots — conflict with (object, mode). Requires table_.mu
  /// and the object's slow-path seal/guard registered.
  std::vector<TxnId> FindConflicts(TxnId txn, bool requester_blocking,
                                   const LockObjectId& object,
                                   LockMode mode) const;

  /// True iff a (requester holds-conflict holder) pair conflicts, given
  /// the holder's per-mode counts.
  bool ConflictsWithHolder(bool requester_blocking, LockMode mode,
                           TxnId holder, const ModeCounts& counts) const;

  /// True iff adding edge txn -> blockers closes a cycle. Requires
  /// table_.mu.
  bool WouldDeadlock(TxnId txn, const std::vector<TxnId>& blockers) const;

  /// Marks `state` aborted and wakes it if it is parked. Must be called
  /// without table_.mu held (it fences the mutex to close the
  /// check-then-wait race).
  void MarkAbortedTxn(TxnId txn, const TxnPtr& state, TraceBuffer* events);

  Options options_;

  Table table_;
  std::array<TxnStripe, kTxnStripes> txn_stripes_;

  std::atomic<TxnId> next_txn_{1};

  // Aggregate counters (Stats); the table's own live in table_.stats.
  std::atomic<uint64_t> acquired_{0};
  std::atomic<uint64_t> blocked_{0};
  std::atomic<uint64_t> deadlocks_{0};
  std::atomic<uint64_t> wounds_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> expired_waits_{0};
  std::atomic<uint64_t> aborts_marked_{0};
  std::atomic<uint64_t> unknown_releases_{0};
  std::atomic<uint64_t> blocking_txns_{0};
};

}  // namespace dbps

#endif  // DBPS_LOCK_LOCK_MANAGER_H_
