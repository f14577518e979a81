#include "lock/lock_manager.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"

namespace dbps {

namespace {

// --- FastSlot mode-word layout ---------------------------------------------
//
//   bit 63      : sealed — the slow path has interest in this slot; fast
//                 CAS grants fail (the CAS itself rejects them, since the
//                 expected word is compared in full).
//   bits 40..59 : granted Wa count     bits 20..39 : granted Ra count
//   bits  0..19 : granted Rc count     bits 60..62 : unused
//
// Holder entries are (txn << 16 | count); count is capped at 16 bits.

constexpr uint64_t kSealedBit = 1ull << 63;
constexpr int kFieldBits = 20;
constexpr uint64_t kFieldMask = (1ull << kFieldBits) - 1;
// Refuse fast grants near field capacity so a burst of in-flight
// increments can never carry a field into its neighbor.
constexpr uint64_t kFieldMax = kFieldMask - 64;
constexpr uint64_t kHolderCountMask = 0xffffull;
constexpr int kFastCasAttempts = 8;

inline int FieldShift(LockMode mode) {
  return kFieldBits * static_cast<int>(mode);
}
inline uint64_t ModeInc(LockMode mode) { return 1ull << FieldShift(mode); }
inline uint64_t FieldCount(uint64_t word, LockMode mode) {
  return (word >> FieldShift(mode)) & kFieldMask;
}
inline uint64_t TotalCount(uint64_t word) {
  return FieldCount(word, LockMode::kRc) + FieldCount(word, LockMode::kRa) +
         FieldCount(word, LockMode::kWa);
}

// Is `mode` grantable by one CAS given the slot's current word? Uses the
// same Table 4.1 matrix as the slow path — including the Wa-over-Rc cell
// under kRcRaWa — against every mode with a nonzero granted count. Note
// the word aggregates *all* holders including the requester itself, so a
// self-upgrade (e.g. Wa over one's own Rc under kTwoPhase) conservatively
// falls back to the slow path, which skips self-conflicts exactly.
inline bool FastWordAllows(LockProtocol protocol, uint64_t word,
                           LockMode mode) {
  if (word & kSealedBit) return false;
  if (FieldCount(word, mode) >= kFieldMax) return false;
  for (int m = 0; m < kNumLockModes; ++m) {
    const LockMode held = static_cast<LockMode>(m);
    if (FieldCount(word, held) == 0) continue;
    if (!Compatible(protocol, mode, held)) return false;
  }
  return true;
}

inline bool AllZero(const std::array<uint32_t, kNumLockModes>& counts) {
  return counts[0] == 0 && counts[1] == 0 && counts[2] == 0;
}

}  // namespace

std::string LockEvent::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kGrant:
      out << "grant   T" << txn << " " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kBlock:
      out << "block   T" << txn << " " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kDeadlock:
      out << "deadlock T" << txn << " on " << LockModeToString(mode) << "("
          << object.ToString() << ")";
      break;
    case Kind::kAbortMark:
      out << "abort   T" << txn;
      break;
    case Kind::kRelease:
      out << "release T" << txn;
      break;
  }
  return out.str();
}

LockManager::LockManager(Options options) : options_(std::move(options)) {}

size_t LockManager::FastSlotIndex(const LockObjectId& object) {
  return LockObjectIdHash{}(object) % kFastSlots;
}

size_t LockManager::RelGuardIndex(SymbolId relation) {
  return static_cast<size_t>(Mix64(relation)) % kRelGuards;
}

TxnId LockManager::Begin() {
  TxnId txn = next_txn_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<TxnState>();
  TxnStripe& stripe = txn_stripes_[txn % kTxnStripes];
  std::lock_guard<std::mutex> guard(stripe.mu);
  stripe.txns.emplace(txn, std::move(state));
  return txn;
}

LockManager::TxnPtr LockManager::FindTxn(TxnId txn) const {
  const TxnStripe& stripe = txn_stripes_[txn % kTxnStripes];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.txns.find(txn);
  return it == stripe.txns.end() ? nullptr : it->second;
}

LockManager::TxnPtr LockManager::TakeTxn(TxnId txn) {
  TxnStripe& stripe = txn_stripes_[txn % kTxnStripes];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.txns.find(txn);
  if (it == stripe.txns.end()) return nullptr;
  TxnPtr state = std::move(it->second);
  stripe.txns.erase(it);
  return state;
}

bool LockManager::IsBlockingTxn(TxnId txn) const {
  TxnPtr state = FindTxn(txn);
  return state != nullptr && state->blocking.load(std::memory_order_acquire);
}

bool LockManager::ConflictsWithHolder(bool requester_blocking, LockMode mode,
                                      TxnId holder,
                                      const ModeCounts& counts) const {
  const LockProtocol base =
      requester_blocking ? LockProtocol::kTwoPhase : options_.protocol;
  bool rcrawa_ok = true;      // compatible under the configured matrix
  bool twophase_ok = true;    // compatible under strict 2PL
  for (int m = 0; m < kNumLockModes; ++m) {
    if (counts[m] == 0) continue;
    const LockMode held = static_cast<LockMode>(m);
    if (!Compatible(base, mode, held)) rcrawa_ok = false;
    if (!Compatible(LockProtocol::kTwoPhase, mode, held)) twophase_ok = false;
  }
  if (!rcrawa_ok) return true;
  // Compatible under the configured matrix. The only cell where the
  // matrices differ is Wa-over-Rc; if the holder escalated to blocking
  // (2PL-style) acquisition, that cell conflicts after all. Only then is
  // the (registry-lookup) blocking check needed.
  if (base == LockProtocol::kRcRaWa && !twophase_ok &&
      IsBlockingTxn(holder)) {
    return true;
  }
  return false;
}

// --- Lock-free fast path ---------------------------------------------------

void LockManager::DrainSlot(const FastSlot& slot) {
  for (int spins = 0;; ++spins) {
    const uint64_t word = slot.word.load(std::memory_order_seq_cst);
    const uint64_t granted = TotalCount(word);
    uint64_t accounted = 0;
    for (const auto& entry : slot.holders) {
      accounted += entry.load(std::memory_order_seq_cst) & kHolderCountMask;
    }
    if (accounted == granted) return;
    if (spins >= 64) std::this_thread::yield();
  }
}

bool LockManager::ClaimFastHolder(FastSlot& slot, TxnId txn) {
  // Pass 0: bump an existing entry of ours. Pass 1: also claim a free one.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& entry : slot.holders) {
      uint64_t e = entry.load(std::memory_order_seq_cst);
      for (;;) {
        const bool ours = (e >> 16) == txn;
        if (!ours && (pass == 0 || e != 0)) break;
        if (ours && (e & kHolderCountMask) == kHolderCountMask) {
          return false;  // per-entry count saturated
        }
        const uint64_t desired = ours ? e + 1 : (txn << 16) | 1;
        if (entry.compare_exchange_weak(e, desired,
                                        std::memory_order_seq_cst)) {
          return true;
        }
      }
    }
  }
  return false;  // all entries taken by other transactions
}

void LockManager::ReleaseFastHolder(FastSlot& slot, TxnId txn,
                                    uint64_t count) {
  for (auto& entry : slot.holders) {
    uint64_t e = entry.load(std::memory_order_seq_cst);
    if ((e >> 16) != txn) continue;
    // Only the owner ever decrements its entry, and claims touch only
    // free or own entries, so this CAS competes with nothing but our own
    // (impossible) concurrent release — retry is pure paranoia.
    for (;;) {
      const uint64_t held = e & kHolderCountMask;
      DBPS_DCHECK(held >= count) << "fast holder entry under-counted";
      const uint64_t remaining = held - count;
      const uint64_t desired = remaining == 0 ? 0 : (txn << 16) | remaining;
      if (entry.compare_exchange_weak(e, desired,
                                      std::memory_order_seq_cst)) {
        return;
      }
      if ((e >> 16) != txn) break;
    }
  }
  DBPS_DCHECK(false) << "fast holder entry missing for T" << txn;
}

bool LockManager::TryFastAcquire(const TxnPtr& state, TxnId txn,
                                 const LockObjectId& object, LockMode mode) {
  FastSlot& slot = table_.fast[FastSlotIndex(object)];
  std::atomic<uint32_t>& guard =
      table_.rel_guards[RelGuardIndex(object.relation)];
  // Cheap pre-checks before publishing anything.
  if (guard.load(std::memory_order_seq_cst) != 0) return false;
  uint64_t word = slot.word.load(std::memory_order_seq_cst);
  if (!FastWordAllows(options_.protocol, word, mode)) return false;

  // Publish the tentative hold FIRST: once our mode-word increment is
  // visible, any exact inspector (slow-path conflict check, victim sweep)
  // must be able to find which object we hold — it reads this record.
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    HoldCounts& hold = state->holds[object];
    ++hold.counts[static_cast<int>(mode)];
    ++hold.fast[static_cast<int>(mode)];
  }

  bool granted = false;
  for (int attempt = 0; attempt < kFastCasAttempts; ++attempt) {
    if (!FastWordAllows(options_.protocol, word, mode)) break;
    if (slot.word.compare_exchange_weak(word, word + ModeInc(mode),
                                        std::memory_order_seq_cst)) {
      granted = true;
      break;
    }
    table_.fast_cas_retries.fetch_add(1, std::memory_order_relaxed);
  }
  // Dekker re-check against a concurrent relation-level slow acquire: it
  // raises the guard and then scans the slots; we CASed the word and now
  // re-read the guard. Both operations are seq_cst, so at least one side
  // observes the other — if we see the guard we retreat; if we don't, the
  // scanner's drain sees our grant.
  if (granted && guard.load(std::memory_order_seq_cst) != 0) {
    slot.word.fetch_sub(ModeInc(mode), std::memory_order_seq_cst);
    granted = false;
  }
  if (granted && !ClaimFastHolder(slot, txn)) {
    slot.word.fetch_sub(ModeInc(mode), std::memory_order_seq_cst);
    granted = false;
  }
  if (!granted) {
    // Retract the tentative hold; fall back to the slow path.
    std::lock_guard<std::mutex> txn_guard(state->mu);
    auto it = state->holds.find(object);
    DBPS_DCHECK(it != state->holds.end());
    --it->second.counts[static_cast<int>(mode)];
    --it->second.fast[static_cast<int>(mode)];
    if (AllZero(it->second.counts)) state->holds.erase(it);
    return false;
  }
  table_.fast_grants.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LockManager::AddSealRef(size_t slot_index) {
  if (table_.seal_refs[slot_index]++ == 0) {
    FastSlot& slot = table_.fast[slot_index];
    slot.word.fetch_or(kSealedBit, std::memory_order_seq_cst);
    // Flush in-flight fast operations: once the holder entries account
    // for every granted count, every pre-seal grant is enumerable and no
    // new one can land (the CAS compares the full word, seal included).
    DrainSlot(slot);
  }
}

void LockManager::DropSealRef(size_t slot_index) {
  DBPS_DCHECK(table_.seal_refs[slot_index] > 0);
  if (--table_.seal_refs[slot_index] == 0) {
    table_.fast[slot_index].word.fetch_and(~kSealedBit,
                                           std::memory_order_seq_cst);
  }
}

void LockManager::CollectFastObjectConflicts(const FastSlot& slot, TxnId txn,
                                             bool requester_blocking,
                                             const LockObjectId& object,
                                             LockMode mode,
                                             std::vector<TxnId>* out) const {
  for (const auto& entry : slot.holders) {
    const TxnId holder = entry.load(std::memory_order_seq_cst) >> 16;
    if (holder == 0 || holder == txn) continue;
    TxnPtr holder_state = FindTxn(holder);
    if (holder_state == nullptr) continue;  // releasing/released: no conflict
    ModeCounts fast{};
    {
      std::lock_guard<std::mutex> holder_guard(holder_state->mu);
      auto it = holder_state->holds.find(object);
      if (it == holder_state->holds.end()) continue;  // different object,
      fast = it->second.fast;                         // same slot (hash)
    }
    if (AllZero(fast)) continue;  // only slow holds: the bucket covers it
    if (ConflictsWithHolder(requester_blocking, mode, holder, fast)) {
      out->push_back(holder);
    }
  }
}

void LockManager::CollectFastRelationConflicts(TxnId txn,
                                               bool requester_blocking,
                                               SymbolId relation,
                                               LockMode mode,
                                               std::vector<TxnId>* out) const {
  // The caller raised the relation guard, so no new fast grant in this
  // relation can complete; drain each active slot to flush in-flight
  // operations, then inspect every fast holder's record for tuple/intent
  // holds in `relation`.
  for (const FastSlot& slot : table_.fast) {
    if (TotalCount(slot.word.load(std::memory_order_seq_cst)) == 0) continue;
    DrainSlot(slot);
    for (const auto& entry : slot.holders) {
      const TxnId holder = entry.load(std::memory_order_seq_cst) >> 16;
      if (holder == 0 || holder == txn) continue;
      TxnPtr holder_state = FindTxn(holder);
      if (holder_state == nullptr) continue;
      ModeCounts fast{};
      {
        std::lock_guard<std::mutex> holder_guard(holder_state->mu);
        for (const auto& [held_object, hold] : holder_state->holds) {
          if (held_object.relation != relation ||
              held_object.is_relation_level()) {
            continue;
          }
          for (int m = 0; m < kNumLockModes; ++m) fast[m] += hold.fast[m];
        }
      }
      if (AllZero(fast)) continue;
      if (ConflictsWithHolder(requester_blocking, mode, holder, fast)) {
        out->push_back(holder);
      }
    }
  }
}

// RAII for the slow path's fast-path bookkeeping around one Acquire:
// tuple/intent requests seal the object's fast slot for the duration
// (table_.mu must be held at construction and destruction — satisfied
// because the guard is declared after the table lock and the lock is
// only dropped transiently mid-scope); relation-level requests raise the
// relation guard, and keep one count on grant (released by Release).
class LockManager::SlowAcquireRef {
 public:
  SlowAcquireRef(LockManager* lm, const LockObjectId& object)
      : lm_(lm),
        relation_level_(object.is_relation_level()),
        slot_index_(FastSlotIndex(object)),
        guard_(lm->table_.rel_guards[RelGuardIndex(object.relation)]) {
    if (relation_level_) {
      guard_.fetch_add(1, std::memory_order_seq_cst);
    } else {
      lm_->AddSealRef(slot_index_);
    }
  }
  SlowAcquireRef(const SlowAcquireRef&) = delete;
  SlowAcquireRef& operator=(const SlowAcquireRef&) = delete;
  ~SlowAcquireRef() {
    if (relation_level_) {
      if (!granted_) guard_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      lm_->DropSealRef(slot_index_);
    }
  }
  /// A relation-level grant keeps its +1 guard count (one per granted
  /// Acquire call), paid back by Release. No-op for tuple requests.
  void KeepGuardCount() { granted_ = true; }

 private:
  LockManager* lm_;
  const bool relation_level_;
  const size_t slot_index_;
  std::atomic<uint32_t>& guard_;
  bool granted_ = false;
};

void LockManager::CollectBucketConflicts(const Bucket& bucket, TxnId txn,
                                         bool requester_blocking,
                                         LockMode mode,
                                         std::vector<TxnId>* out) const {
  for (const auto& [holder, counts] : bucket.holds) {
    if (holder == txn) continue;  // a transaction never conflicts with itself
    if (ConflictsWithHolder(requester_blocking, mode, holder, counts)) {
      out->push_back(holder);
    }
  }
}

std::vector<TxnId> LockManager::FindConflicts(TxnId txn,
                                              bool requester_blocking,
                                              const LockObjectId& object,
                                              LockMode mode) const {
  std::vector<TxnId> conflicts;
  // Direct bucket.
  auto bucket_it = table_.buckets.find(object);
  if (bucket_it != table_.buckets.end()) {
    CollectBucketConflicts(bucket_it->second, txn, requester_blocking, mode,
                           &conflicts);
  }
  if (object.is_relation_level()) {
    // Relation-level request vs every tuple/insert hold in the relation.
    auto summary_it = table_.relation_summaries.find(object.relation);
    if (summary_it != table_.relation_summaries.end()) {
      for (const auto& [holder, counts] : summary_it->second) {
        if (holder == txn) continue;
        if (ConflictsWithHolder(requester_blocking, mode, holder, counts)) {
          conflicts.push_back(holder);
        }
      }
    }
    // ...and every *fast* tuple/insert hold (invisible to the summary).
    CollectFastRelationConflicts(txn, requester_blocking, object.relation,
                                 mode, &conflicts);
  } else {
    // Tuple/insert request vs the relation-level bucket. Relation-level
    // locks are always slow-path, so the bucket is exhaustive for them.
    auto rel_it =
        table_.buckets.find(LockObjectId{object.relation, kRelationLevel});
    if (rel_it != table_.buckets.end()) {
      CollectBucketConflicts(rel_it->second, txn, requester_blocking, mode,
                             &conflicts);
    }
    // Fast holders of the object itself (the caller sealed its slot).
    CollectFastObjectConflicts(table_.fast[FastSlotIndex(object)], txn,
                               requester_blocking, object, mode, &conflicts);
  }
  std::sort(conflicts.begin(), conflicts.end());
  conflicts.erase(std::unique(conflicts.begin(), conflicts.end()),
                  conflicts.end());
  return conflicts;
}

bool LockManager::WouldDeadlock(TxnId txn,
                                const std::vector<TxnId>& blockers) const {
  // DFS from each blocker through the waits-for edges, looking for txn.
  std::vector<TxnId> stack(blockers.begin(), blockers.end());
  std::unordered_set<TxnId> visited;
  while (!stack.empty()) {
    TxnId current = stack.back();
    stack.pop_back();
    if (current == txn) return true;
    if (!visited.insert(current).second) continue;
    auto it = table_.waits_for.find(current);
    if (it != table_.waits_for.end()) {
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
  return false;
}

void LockManager::MarkAbortedTxn(TxnId txn, const TxnPtr& state,
                                 TraceBuffer* events) {
  if (state == nullptr) return;
  if (state->aborted.exchange(true, std::memory_order_acq_rel)) return;
  aborts_marked_.fetch_add(1, std::memory_order_relaxed);
  events->Add(LockEvent::Kind::kAbortMark, txn, LockObjectId{}, LockMode::kRc);
  // Lock/unlock before notifying so a waiter that checked its aborted flag
  // but has not yet parked cannot miss the notification.
  { std::lock_guard<std::mutex> fence(table_.mu); }
  table_.cv.notify_all();
}

Status LockManager::Acquire(TxnId txn, LockObjectId object, LockMode mode) {
  // Chaos site: a delayed grant — the request stalls before it even
  // reaches the manager (sleep-safe: no lock held here).
  (void)DBPS_FAILPOINT("lock.acquire.delay");

  TraceBuffer events(this);  // flushes after every guard below unwinds

  TxnPtr state = FindTxn(txn);
  if (state == nullptr) {
    return Status::Internal("Acquire on unknown transaction");
  }
  if (state->aborted.load(std::memory_order_acquire)) {
    return Status::Aborted("transaction was aborted");
  }
  // Chaos sites: a spurious wait-timeout, and an injected abort (the
  // request is marked aborted, as if a committer had victimized it) —
  // exactly the failures callers must already survive. Stats::wounds
  // counts the injected aborts.
  if (DBPS_FAILPOINT("lock.acquire.timeout")) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::LockTimeout("injected timeout on " + object.ToString());
  }
  if (DBPS_FAILPOINT("lock.acquire.wound")) {
    wounds_.fetch_add(1, std::memory_order_relaxed);
    MarkAbortedTxn(txn, state, &events);
    return Status::Aborted("injected wound on " + object.ToString());
  }

  const bool requester_blocking =
      state->blocking.load(std::memory_order_acquire);

  // Lock-free fast path: one CAS on the slot's mode-word, no table mutex.
  // Relation-level requests always go slow (they must see every tuple
  // hold of the relation), as do blocking (escalated) requesters — which
  // is what keeps the starvation guarantee: a fast Wa-over-Rc can never
  // race past a blocking holder's Rc, because a blocking transaction's
  // Rc only ever lives in a (sealed) bucket.
  if (!object.is_relation_level() && !requester_blocking &&
      TryFastAcquire(state, txn, object, mode)) {
    acquired_.fetch_add(1, std::memory_order_relaxed);
    events.Add(LockEvent::Kind::kGrant, txn, object, mode);
    return Status::OK();
  }

  const auto deadline =
      std::chrono::steady_clock::now() + options_.wait_timeout;
  bool waited = false;

  std::unique_lock<std::mutex> table_lock(table_.mu, std::try_to_lock);
  if (!table_lock.owns_lock()) {
    table_lock.lock();
    ++table_.stats.mutex_contentions;
  }
  const auto hold_start = std::chrono::steady_clock::now();

  // Seal the object's fast slot (or raise the relation guard) for the
  // duration of this slow acquire: fast grants can no longer race the
  // conflict checks below or steal ahead of a queued waiter.
  SlowAcquireRef slow_ref(this, object);

  // Fast path: already holding this mode on this object.
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    auto hold_it = state->holds.find(object);
    if (hold_it != state->holds.end() &&
        hold_it->second.counts[static_cast<int>(mode)] > 0) {
      ++hold_it->second.counts[static_cast<int>(mode)];
      Bucket& bucket = table_.buckets[object];
      auto [pair_it, inserted] = bucket.holds.try_emplace(txn, ModeCounts{});
      ++pair_it->second[static_cast<int>(mode)];
      if (inserted && !object.is_relation_level()) {
        AddSealRef(FastSlotIndex(object));  // the pair's seal ref
      }
      if (!object.is_relation_level()) {
        ++table_.relation_summaries[object.relation][txn]
                                   [static_cast<int>(mode)];
      } else {
        slow_ref.KeepGuardCount();
      }
      ++table_.stats.acquires;
      table_.stats.hold_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - hold_start)
              .count());
      acquired_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  for (;;) {
    std::vector<TxnId> conflicts =
        FindConflicts(txn, requester_blocking, object, mode);
    if (conflicts.empty()) break;

    // Checked under the table mutex, so a MarkAborted after this point
    // fences the mutex only once the wait below has released it — its
    // wake-up cannot be lost. (The entry check ran before the mutex.)
    if (state->aborted.load(std::memory_order_acquire)) {
      return Status::Aborted("transaction aborted while waiting for " +
                             object.ToString());
    }
    // The cycle check and the edge it approves go in under the table
    // mutex, as does every other waiter's, so the check sees every edge.
    if (WouldDeadlock(txn, conflicts)) {
      deadlocks_.fetch_add(1, std::memory_order_relaxed);
      events.Add(LockEvent::Kind::kDeadlock, txn, object, mode);
      return Status::Deadlock("waiting for " + object.ToString() +
                              " would close a waits-for cycle");
    }
    table_.waits_for[txn] = std::move(conflicts);
    if (!waited) {
      waited = true;
      blocked_.fetch_add(1, std::memory_order_relaxed);
      ++table_.stats.waits;
      events.Add(LockEvent::Kind::kBlock, txn, object, mode);
    }
    auto wait_result = table_.cv.wait_until(table_lock, deadline);
    table_.waits_for.erase(txn);
    if (state->aborted.load(std::memory_order_acquire)) {
      return Status::Aborted("transaction aborted while waiting for " +
                             object.ToString());
    }
    if (wait_result == std::cv_status::timeout) {
      expired_waits_.fetch_add(1, std::memory_order_relaxed);
      if (!FindConflicts(txn, requester_blocking, object, mode).empty()) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        return Status::LockTimeout("gave up waiting for " +
                                   object.ToString());
      }
      break;
    }
  }

  // Grant (slow path: into the bucket).
  {
    Bucket& bucket = table_.buckets[object];
    auto [pair_it, inserted] = bucket.holds.try_emplace(txn, ModeCounts{});
    ++pair_it->second[static_cast<int>(mode)];
    if (inserted && !object.is_relation_level()) {
      AddSealRef(FastSlotIndex(object));  // the pair's seal ref
    }
  }
  if (!object.is_relation_level()) {
    ++table_.relation_summaries[object.relation][txn][static_cast<int>(mode)];
  } else {
    slow_ref.KeepGuardCount();
  }
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    auto [hold_it, unused] = state->holds.try_emplace(object, HoldCounts{});
    ++hold_it->second.counts[static_cast<int>(mode)];
  }
  ++table_.stats.acquires;
  if (!waited) {
    table_.stats.hold_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - hold_start)
            .count());
  }
  acquired_.fetch_add(1, std::memory_order_relaxed);
  events.Add(LockEvent::Kind::kGrant, txn, object, mode);
  return Status::OK();
}

std::vector<TxnId> LockManager::CollectRcVictims(TxnId txn) const {
  // Under kTwoPhase the Wa-over-Rc cell is incompatible at *grant* time,
  // so a committer can never hold Wa concurrently with a conflicting Rc:
  // there is nothing to sweep.
  if (options_.protocol == LockProtocol::kTwoPhase) return {};

  TxnPtr state = FindTxn(txn);
  if (state == nullptr) return {};

  // Snapshot the committer's Wa objects. The committer's own thread calls
  // this, so the set is stable; and because Rc-vs-Wa is incompatible in
  // Table 4.1, no *new* conflicting Rc can be granted while these Wa
  // locks are held — a slow Wa seals its slot, a fast Wa sits in the
  // mode-word and fails any fast Rc's compatibility check.
  std::vector<LockObjectId> wa_objects;
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    for (const auto& [object, hold] : state->holds) {
      if (hold.counts[static_cast<int>(LockMode::kWa)] > 0) {
        wa_objects.push_back(object);
      }
    }
  }
  if (wa_objects.empty()) return {};

  std::unordered_set<TxnId> victims;
  // Blocking (escalated) transactions are never victims: their Rc locks
  // conflict with Wa at grant time, so a committer holding Wa cannot have
  // raced past them (and exempting them is the starvation guarantee).
  auto add_rc_holders = [&](const Bucket& bucket) {
    for (const auto& [holder, counts] : bucket.holds) {
      if (holder != txn && counts[static_cast<int>(LockMode::kRc)] > 0 &&
          !IsBlockingTxn(holder)) {
        victims.insert(holder);
      }
    }
  };
  // A fast-path candidate (from a slot's holder entries) is a victim iff
  // its record shows Rc on a matching object. Fast holders are never
  // blocking (SetBlocking precedes every acquire, and blocking
  // transactions skip the fast path), but the check is kept for symmetry.
  auto add_fast_rc_holder = [&](TxnId holder, const LockObjectId& object) {
    if (holder == 0 || holder == txn) return;
    TxnPtr holder_state = FindTxn(holder);
    if (holder_state == nullptr) return;
    bool holds_rc = false;
    {
      std::lock_guard<std::mutex> holder_guard(holder_state->mu);
      auto it = holder_state->holds.find(object);
      holds_rc = it != holder_state->holds.end() &&
                 it->second.fast[static_cast<int>(LockMode::kRc)] > 0;
    }
    if (holds_rc && !IsBlockingTxn(holder)) victims.insert(holder);
  };

  std::lock_guard<std::mutex> table_guard(table_.mu);
  for (const LockObjectId& object : wa_objects) {
    // Rc holders on the same object.
    auto bucket_it = table_.buckets.find(object);
    if (bucket_it != table_.buckets.end()) add_rc_holders(bucket_it->second);

    if (object.is_relation_level()) {
      // Relation-level Wa vs tuple-level Rc anywhere in the relation.
      auto summary_it = table_.relation_summaries.find(object.relation);
      if (summary_it != table_.relation_summaries.end()) {
        for (const auto& [holder, counts] : summary_it->second) {
          if (holder != txn && counts[static_cast<int>(LockMode::kRc)] > 0 &&
              !IsBlockingTxn(holder)) {
            victims.insert(holder);
          }
        }
      }
      // ...and fast tuple-level Rc anywhere in the relation. The
      // committer's relation-level Wa grant raised the relation guard, so
      // no new fast Rc in the relation can land; drain flushes the
      // in-flight ones.
      for (const FastSlot& slot : table_.fast) {
        if (TotalCount(slot.word.load(std::memory_order_seq_cst)) == 0) {
          continue;
        }
        DrainSlot(slot);
        for (const auto& entry : slot.holders) {
          const TxnId holder = entry.load(std::memory_order_seq_cst) >> 16;
          if (holder == 0 || holder == txn) continue;
          TxnPtr holder_state = FindTxn(holder);
          if (holder_state == nullptr) continue;
          bool holds_rc = false;
          {
            std::lock_guard<std::mutex> hg(holder_state->mu);
            for (const auto& [held_object, hold] : holder_state->holds) {
              if (held_object.relation == object.relation &&
                  !held_object.is_relation_level() &&
                  hold.fast[static_cast<int>(LockMode::kRc)] > 0) {
                holds_rc = true;
                break;
              }
            }
          }
          if (holds_rc && !IsBlockingTxn(holder)) victims.insert(holder);
        }
      }
    } else {
      // Tuple/insert Wa vs relation-level Rc (negation escalations).
      auto rel_it =
          table_.buckets.find(LockObjectId{object.relation, kRelationLevel});
      if (rel_it != table_.buckets.end()) add_rc_holders(rel_it->second);
      // ...and fast Rc on the same object. The committer's Wa blocks new
      // fast Rc grants on the slot (word incompatibility if the Wa is
      // fast, sealed bit if it is slow), so drain + enumerate is
      // exhaustive.
      const FastSlot& slot = table_.fast[FastSlotIndex(object)];
      DrainSlot(slot);
      for (const auto& entry : slot.holders) {
        add_fast_rc_holder(entry.load(std::memory_order_seq_cst) >> 16,
                           object);
      }
    }
  }
  return std::vector<TxnId>(victims.begin(), victims.end());
}

void LockManager::MarkAborted(TxnId txn) {
  TraceBuffer events(this);
  MarkAbortedTxn(txn, FindTxn(txn), &events);
}

bool LockManager::IsAborted(TxnId txn) const {
  TxnPtr state = FindTxn(txn);
  return state != nullptr && state->aborted.load(std::memory_order_acquire);
}

void LockManager::SetBlocking(TxnId txn) {
  TxnPtr state = FindTxn(txn);
  if (state == nullptr) return;
#ifndef NDEBUG
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    DBPS_DCHECK(state->holds.empty())
        << "SetBlocking after locks were acquired";
  }
#endif
  if (!state->blocking.exchange(true, std::memory_order_acq_rel)) {
    blocking_txns_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool LockManager::IsBlocking(TxnId txn) const { return IsBlockingTxn(txn); }

void LockManager::Release(TxnId txn) {
  TraceBuffer events(this);
  TxnPtr state = TakeTxn(txn);
  if (state == nullptr) {
    // Unknown or double release: tolerate (the caller's rollback paths
    // may race a victimizing committer) but count — the lock table is
    // left untouched.
    unknown_releases_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The txn is out of the registry, so no new grants can appear; move the
  // holds out (never hold state->mu while taking the table mutex — lock
  // order is table mu -> state.mu). Taking the registry entry first also
  // orders the release for fast-path inspectors: once the record is gone,
  // FindTxn fails and they treat the holder as released.
  std::unordered_map<LockObjectId, HoldCounts, LockObjectIdHash> holds;
  {
    std::lock_guard<std::mutex> txn_guard(state->mu);
    holds.swap(state->holds);
  }
  // Retire fast grants first, entry before word (the drain invariant:
  // holder entries never exceed the mode-word counts), and both before
  // the mutex fence below so a waiter's recheck observes them.
  for (const auto& [object, hold] : holds) {
    const uint64_t fast_total = static_cast<uint64_t>(hold.fast[0]) +
                                hold.fast[1] + hold.fast[2];
    if (fast_total == 0) continue;
    FastSlot& slot = table_.fast[FastSlotIndex(object)];
    ReleaseFastHolder(slot, txn, fast_total);
    uint64_t dec = 0;
    for (int m = 0; m < kNumLockModes; ++m) {
      dec += static_cast<uint64_t>(hold.fast[m]) *
             ModeInc(static_cast<LockMode>(m));
    }
    slot.word.fetch_sub(dec, std::memory_order_seq_cst);
  }
  {
    std::lock_guard<std::mutex> table_guard(table_.mu);
    for (const auto& [object, hold] : holds) {
      auto bucket_it = table_.buckets.find(object);
      if (bucket_it != table_.buckets.end()) {
        if (bucket_it->second.holds.erase(txn) > 0 &&
            !object.is_relation_level()) {
          DropSealRef(FastSlotIndex(object));  // the pair's ref
        }
        if (bucket_it->second.holds.empty()) {
          table_.buckets.erase(bucket_it);
        }
      }
      if (!object.is_relation_level()) {
        auto summary_it = table_.relation_summaries.find(object.relation);
        if (summary_it != table_.relation_summaries.end()) {
          summary_it->second.erase(txn);
          if (summary_it->second.empty()) {
            table_.relation_summaries.erase(summary_it);
          }
        }
      } else {
        // Pay back the relation guard: one count per granted
        // relation-level Acquire call (== the hold's total count;
        // relation-level locks are never fast).
        const uint32_t total =
            hold.counts[0] + hold.counts[1] + hold.counts[2];
        table_.rel_guards[RelGuardIndex(object.relation)].fetch_sub(
            total, std::memory_order_seq_cst);
      }
    }
    table_.waits_for.erase(txn);
  }
  // Wake waiters to recompute their conflicts. (The lock/unlock above
  // doubles as the fence for the fast decrements.)
  table_.cv.notify_all();
  events.Add(LockEvent::Kind::kRelease, txn, LockObjectId{}, LockMode::kRc);
}

bool LockManager::Holds(TxnId txn, LockObjectId object, LockMode mode) const {
  TxnPtr state = FindTxn(txn);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> txn_guard(state->mu);
  auto hold_it = state->holds.find(object);
  return hold_it != state->holds.end() &&
         hold_it->second.counts[static_cast<int>(mode)] > 0;
}

size_t LockManager::live_transactions() const {
  size_t total = 0;
  for (const TxnStripe& stripe : txn_stripes_) {
    std::lock_guard<std::mutex> guard(stripe.mu);
    total += stripe.txns.size();
  }
  return total;
}

LockManager::Stats LockManager::GetStats() const {
  Stats stats;
  stats.acquired = acquired_.load(std::memory_order_relaxed);
  stats.blocked = blocked_.load(std::memory_order_relaxed);
  stats.deadlocks = deadlocks_.load(std::memory_order_relaxed);
  stats.wounds = wounds_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.expired_waits = expired_waits_.load(std::memory_order_relaxed);
  stats.aborts_marked = aborts_marked_.load(std::memory_order_relaxed);
  stats.unknown_releases = unknown_releases_.load(std::memory_order_relaxed);
  stats.blocking_txns = blocking_txns_.load(std::memory_order_relaxed);
  ShardStats table_stats;
  {
    std::lock_guard<std::mutex> table_guard(table_.mu);
    table_stats = table_.stats;
  }
  table_stats.fast_path_grants =
      table_.fast_grants.load(std::memory_order_relaxed);
  table_stats.fast_path_cas_retries =
      table_.fast_cas_retries.load(std::memory_order_relaxed);
  stats.fast_path_grants = table_stats.fast_path_grants;
  stats.fast_path_cas_retries = table_stats.fast_path_cas_retries;
  stats.shards.push_back(table_stats);
  return stats;
}

}  // namespace dbps
