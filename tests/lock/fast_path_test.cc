// Tests for the lock-free CAS grant fast path (DESIGN.md §4.1): which
// requests ride it, how the slow path seals it, how the relation guard
// keeps the hierarchy check sound, and — under TSan — that readers
// hammering a slot's mode-word while a writer seals it lose no wakeups
// and keep the grant accounting exact.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"

namespace dbps {
namespace {

LockObjectId Tuple(SymbolId relation, WmeId id) {
  return LockObjectId{relation, id};
}
LockObjectId RelationLock(SymbolId relation) {
  return LockObjectId{relation, kRelationLevel};
}

LockManager::Options Opts(
    LockProtocol protocol,
    std::chrono::milliseconds wait_timeout = std::chrono::milliseconds(2000)) {
  LockManager::Options options;
  options.protocol = protocol;
  options.wait_timeout = wait_timeout;
  return options;
}

/// The global and the table's grant accounting must agree regardless of
/// which path each grant took.
void ExpectAccountingConsistent(const LockManager::Stats& stats) {
  ASSERT_EQ(stats.shards.size(), 1u);
  const LockManager::ShardStats& table = stats.shards[0];
  EXPECT_EQ(table.acquires + table.fast_path_grants, stats.acquired);
  EXPECT_EQ(table.fast_path_grants, stats.fast_path_grants);
  EXPECT_EQ(table.fast_path_cas_retries, stats.fast_path_cas_retries);
}

// --- which grants are fast ------------------------------------------------

TEST(FastPath, UncontendedTupleGrantsAreFast) {
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-uncontended");
  TxnId txn = lm.Begin();
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 2), LockMode::kRa).ok());
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 3), LockMode::kWa).ok());
  EXPECT_TRUE(lm.Holds(txn, Tuple(rel, 1), LockMode::kRc));
  EXPECT_TRUE(lm.Holds(txn, Tuple(rel, 3), LockMode::kWa));

  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.fast_path_grants, 3u);
  EXPECT_EQ(stats.acquired, 3u);
  ExpectAccountingConsistent(stats);

  lm.Release(txn);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(FastPath, RelationLevelRequestsNeverUseTheFastPath) {
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  TxnId txn = lm.Begin();
  ASSERT_TRUE(
      lm.Acquire(txn, RelationLock(Sym("fp-rel-level")), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 0u);
  lm.Release(txn);
}

TEST(FastPath, WaOverRcIsFastAndVictimSweepStillSeesTheReader) {
  // The paper's key cell ridden entirely on the fast path: both the Rc
  // and the overlapping Wa are single-CAS grants, yet the commit-time
  // settlement must still find the fast Rc holder through the slot's
  // holder entries.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-waoverrc");
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(writer, Tuple(rel, 1), LockMode::kWa).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 2u);

  std::vector<TxnId> victims = lm.CollectRcVictims(writer);
  EXPECT_EQ(victims, std::vector<TxnId>{reader});

  lm.Release(reader);
  lm.Release(writer);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(FastPath, SelfUpgradeFallsBackToTheSlowPathButSucceeds) {
  // Wa on a tuple whose own Rc is already in the mode-word looks like a
  // conflict to the word (it cannot attribute counts to holders), so the
  // fast path conservatively retreats; the slow path skips self-conflicts
  // and grants.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-upgrade");
  TxnId txn = lm.Begin();
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa).ok());
  EXPECT_TRUE(lm.Holds(txn, Tuple(rel, 1), LockMode::kWa));
  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.acquired, 2u);
  ExpectAccountingConsistent(stats);
  lm.Release(txn);
}

// --- sealing and the relation guard ---------------------------------------

TEST(FastPath, TwoPhaseConflictSealsTheSlotAndWakesTheWriter) {
  // Under 2PL a Wa over an outstanding fast Rc must block: the writer's
  // slow acquire seals the slot, finds the fast holder, waits, and is
  // woken by the reader's release — the no-lost-wakeup contract between
  // the two paths.
  LockManager lm(Opts(LockProtocol::kTwoPhase));
  const SymbolId rel = Sym("fp-seal");
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 1u);

  auto blocked = std::async(std::launch::async, [&] {
    return lm.Acquire(writer, Tuple(rel, 1), LockMode::kWa);
  });
  ASSERT_EQ(blocked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "writer was granted Wa over a live Rc under kTwoPhase";
  lm.Release(reader);
  ASSERT_TRUE(blocked.get().ok());

  LockManager::Stats stats = lm.GetStats();
  EXPECT_GE(stats.blocked, 1u);
  ExpectAccountingConsistent(stats);
  lm.Release(writer);
}

TEST(FastPath, RelationGuardRoutesTupleAcquiresSlow) {
  // A granted relation-level lock raises the relation guard, so tuple
  // grants in that relation leave the fast path (the relation-level
  // holder's conflict scan must be able to see every tuple hold); tuple
  // grants in other relations stay fast.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId guarded = Sym("fp-guarded");
  const SymbolId open = Sym("fp-open");
  TxnId holder = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, RelationLock(guarded), LockMode::kRc).ok());

  TxnId txn = lm.Begin();
  ASSERT_TRUE(lm.Acquire(txn, Tuple(guarded, 1), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 0u);
  ASSERT_TRUE(lm.Acquire(txn, Tuple(open, 1), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 1u);

  lm.Release(txn);
  lm.Release(holder);
}

TEST(FastPath, FastGrantCannotBypassARelationLevelWa) {
  // Hierarchy safety end to end: with a relation-level Wa outstanding, a
  // tuple Rc in that relation must reach the slow path's hierarchy check
  // and wait there (until a short timeout) rather than sneak through the
  // fast path.
  LockManager lm(
      Opts(LockProtocol::kTwoPhase, std::chrono::milliseconds(20)));
  const SymbolId rel = Sym("fp-hier");
  TxnId writer = lm.Begin(), reader = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, RelationLock(rel), LockMode::kWa).ok());
  Status st = lm.Acquire(reader, Tuple(rel, 1), LockMode::kRc);
  EXPECT_TRUE(st.IsLockTimeout()) << st.ToString();
  EXPECT_EQ(lm.GetStats().fast_path_grants, 0u);
  lm.Release(reader);
  lm.Release(writer);
}

TEST(FastPath, BlockingTransactionSkipsTheFastPath) {
  // Starvation escalation must see exact conflicts, so an escalated
  // transaction acquires everything through the slow path.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-blocking");
  TxnId txn = lm.Begin();
  lm.SetBlocking(txn);
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants, 0u);
  lm.Release(txn);
}

TEST(FastPath, HolderTableOverflowFallsBackAndRecovers) {
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-overflow");
  std::vector<TxnId> txns;
  for (size_t i = 0; i < LockManager::kFastHolderSlots + 1; ++i) {
    TxnId txn = lm.Begin();
    ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
    txns.push_back(txn);
  }
  // The first kFastHolderSlots grants filled the slot's holder entries;
  // the overflow grant went slow (and sealed the slot).
  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.fast_path_grants, LockManager::kFastHolderSlots);
  EXPECT_EQ(stats.acquired, LockManager::kFastHolderSlots + 1);
  ExpectAccountingConsistent(stats);

  for (TxnId txn : txns) lm.Release(txn);
  // The last release dropped the slot's seal; fast grants resume.
  TxnId txn = lm.Begin();
  ASSERT_TRUE(lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc).ok());
  EXPECT_EQ(lm.GetStats().fast_path_grants,
            LockManager::kFastHolderSlots + 1);
  lm.Release(txn);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

// --- deadlock detection engages only on the slow path --------------------

TEST(FastPath, DetectionRefusesACycleThroughAFastHolder) {
  LockManager lm(Opts(LockProtocol::kTwoPhase));
  const SymbolId rel = Sym("fp-cycle");
  TxnId first = lm.Begin(), second = lm.Begin();
  // Both holds are pure fast grants...
  ASSERT_TRUE(lm.Acquire(first, Tuple(rel, 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(second, Tuple(rel, 2), LockMode::kWa).ok());
  ASSERT_EQ(lm.GetStats().fast_path_grants, 2u);

  // ...yet the slow path still sees them: `first` waits on `second`'s
  // fast hold, and `second` asking for `first`'s closes the cycle.
  auto first_wait = std::async(std::launch::async, [&] {
    return lm.Acquire(first, Tuple(rel, 2), LockMode::kWa);
  });
  for (int i = 0; i < 200 && lm.GetStats().blocked == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(lm.GetStats().blocked, 1u);
  Status st = lm.Acquire(second, Tuple(rel, 1), LockMode::kWa);
  EXPECT_TRUE(st.IsDeadlock()) << st.ToString();
  EXPECT_EQ(lm.GetStats().deadlocks, 1u);
  lm.Release(second);  // the victim rolls back; the waiter proceeds
  EXPECT_TRUE(first_wait.get().ok());
  lm.Release(first);
}

// --- concurrency stress (the TSan gate) -----------------------------------

TEST(FastPath, RcReadersVsSealingWaWriterStress) {
  // Readers hammer one tuple's mode-word with fast Rc grants while a 2PL
  // writer repeatedly seals the slot, drains it, waits for the readers,
  // and writes. Terminating at all proves no wakeup is lost between the
  // two paths; the accounting identity proves no grant went uncounted.
  LockManager lm(Opts(LockProtocol::kTwoPhase));
  const SymbolId rel = Sym("fp-stress-2pl");
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 300;
  constexpr int kWrites = 10;

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        TxnId txn = lm.Begin();
        Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc);
        ASSERT_TRUE(st.ok()) << st.ToString();
        lm.Release(txn);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      TxnId txn = lm.Begin();
      Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa);
      ASSERT_TRUE(st.ok()) << st.ToString();
      lm.Release(txn);
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();

  LockManager::Stats stats = lm.GetStats();
  EXPECT_EQ(stats.acquired,
            static_cast<uint64_t>(kReaders) * kReadsPerReader + kWrites);
  EXPECT_GT(stats.fast_path_grants, 0u);
  ExpectAccountingConsistent(stats);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(FastPath, RcRaWaVictimizationStress) {
  // The production shape: fast Rc readers, fast Wa-over-Rc writers that
  // settle the Rc debt (CollectRcVictims + MarkAborted) at commit, and
  // readers that observe their abort mark, roll back, and retry.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  const SymbolId rel = Sym("fp-stress-rcrawa");
  constexpr int kReaders = 3;
  constexpr int kOpsPerReader = 200;
  constexpr int kWrites = 50;
  std::atomic<uint64_t> reader_aborts{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerReader; ++i) {
        TxnId txn = lm.Begin();
        Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kRc);
        if (st.ok() && lm.IsAborted(txn)) st = Status::Aborted("marked");
        if (!st.ok()) reader_aborts.fetch_add(1);
        ASSERT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
        lm.Release(txn);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      TxnId txn = lm.Begin();
      Status st = lm.Acquire(txn, Tuple(rel, 1), LockMode::kWa);
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (TxnId victim : lm.CollectRcVictims(txn)) lm.MarkAborted(victim);
      lm.Release(txn);
    }
  });
  for (auto& thread : threads) thread.join();

  LockManager::Stats stats = lm.GetStats();
  EXPECT_GT(stats.fast_path_grants, 0u);
  ExpectAccountingConsistent(stats);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

}  // namespace
}  // namespace dbps
