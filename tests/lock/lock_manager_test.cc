#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"
#include "util/failpoint.h"

namespace dbps {
namespace {

LockObjectId Tuple(const char* relation, WmeId id) {
  return LockObjectId{Sym(relation), id};
}
LockObjectId Relation(const char* relation) {
  return LockObjectId{Sym(relation), kRelationLevel};
}

LockManager::Options FastOptions(LockProtocol protocol) {
  LockManager::Options options;
  options.protocol = protocol;
  options.wait_timeout = std::chrono::milliseconds(2000);
  return options;
}

// --- Table 4.1 ---------------------------------------------------------

TEST(LockCompatibility, Table41RcRaWa) {
  const LockProtocol p = LockProtocol::kRcRaWa;
  // Row Rc: Y Y N
  EXPECT_TRUE(Compatible(p, LockMode::kRc, LockMode::kRc));
  EXPECT_TRUE(Compatible(p, LockMode::kRc, LockMode::kRa));
  EXPECT_FALSE(Compatible(p, LockMode::kRc, LockMode::kWa));
  // Row Ra: Y Y N
  EXPECT_TRUE(Compatible(p, LockMode::kRa, LockMode::kRc));
  EXPECT_TRUE(Compatible(p, LockMode::kRa, LockMode::kRa));
  EXPECT_FALSE(Compatible(p, LockMode::kRa, LockMode::kWa));
  // Row Wa: Y N N  — the paper's key cell: Wa over Rc is GRANTED.
  EXPECT_TRUE(Compatible(p, LockMode::kWa, LockMode::kRc));
  EXPECT_FALSE(Compatible(p, LockMode::kWa, LockMode::kRa));
  EXPECT_FALSE(Compatible(p, LockMode::kWa, LockMode::kWa));
}

TEST(LockCompatibility, TwoPhaseBlocksWaOverRc) {
  const LockProtocol p = LockProtocol::kTwoPhase;
  EXPECT_FALSE(Compatible(p, LockMode::kWa, LockMode::kRc));
  // Everything else identical to Table 4.1.
  EXPECT_TRUE(Compatible(p, LockMode::kRc, LockMode::kRa));
  EXPECT_FALSE(Compatible(p, LockMode::kRc, LockMode::kWa));
  EXPECT_FALSE(Compatible(p, LockMode::kWa, LockMode::kWa));
}

TEST(LockCompatibility, MatrixRendering) {
  std::string rc = CompatibilityMatrixToString(LockProtocol::kRcRaWa);
  std::string two = CompatibilityMatrixToString(LockProtocol::kTwoPhase);
  EXPECT_NE(rc, two);
  EXPECT_NE(rc.find("req Wa:     Y"), std::string::npos);
  EXPECT_NE(two.find("req Wa:     N"), std::string::npos);
}

// --- grants & conflicts --------------------------------------------------

TEST(LockManager, SharedReadsCoexist) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(t2, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(t2, Tuple("r", 1), LockMode::kRa).ok());
  EXPECT_TRUE(lm.Holds(t1, Tuple("r", 1), LockMode::kRc));
  EXPECT_TRUE(lm.Holds(t2, Tuple("r", 1), LockMode::kRa));
}

TEST(LockManager, WaOverRcGrantedUnderRcRaWa) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple("r", 1), LockMode::kRc).ok());
  // The enhanced-parallelism grant: no blocking.
  EXPECT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());
  // Settlement: the reader is a victim of the writer's commit.
  auto victims = lm.CollectRcVictims(writer);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], reader);
}

TEST(LockManager, WaOverRcBlocksUnder2PL) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple("r", 1), LockMode::kRc).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    Status st = lm.Acquire(writer, Tuple("r", 1), LockMode::kWa);
    EXPECT_TRUE(st.ok()) << st;
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());  // still waiting on the Rc holder
  lm.Release(reader);
  blocked.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(lm.CollectRcVictims(writer).empty());  // 2PL never has victims
}

TEST(LockManager, RcBlocksOnOutstandingWa) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId writer = lm.Begin(), reader = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(lm.Acquire(reader, Tuple("r", 1), LockMode::kRc).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.Release(writer);
  blocked.join();
}

TEST(LockManager, ReacquireOwnModesIsCheap) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kWa).ok());  // upgrade
  EXPECT_TRUE(lm.Holds(t, Tuple("r", 1), LockMode::kWa));
}

TEST(LockManager, SelfConflictNeverBlocks) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId t = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kWa).ok());
  EXPECT_TRUE(lm.Acquire(t, Relation("r"), LockMode::kWa).ok());
}

// --- hierarchy -----------------------------------------------------------

TEST(LockManager, RelationRcConflictsWithTupleWa) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId neg_reader = lm.Begin(), writer = lm.Begin();
  // Negated CE: relation-level Rc.
  ASSERT_TRUE(lm.Acquire(neg_reader, Relation("r"), LockMode::kRc).ok());
  // Tuple write in the same relation is granted (Rc–Wa cell)...
  ASSERT_TRUE(lm.Acquire(writer, Tuple("r", 7), LockMode::kWa).ok());
  // ...but the negation holder is a commit victim (hierarchy check).
  auto victims = lm.CollectRcVictims(writer);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], neg_reader);
}

TEST(LockManager, InsertIntentConflictsWithRelationRc) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId neg_reader = lm.Begin(), creator = lm.Begin();
  ASSERT_TRUE(lm.Acquire(neg_reader, Relation("r"), LockMode::kRc).ok());
  LockObjectId intent{Sym("r"), kInsertLockBase + creator};
  EXPECT_TRUE(intent.is_insert_intent());
  ASSERT_TRUE(lm.Acquire(creator, intent, LockMode::kWa).ok());
  auto victims = lm.CollectRcVictims(creator);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], neg_reader);
}

TEST(LockManager, InsertIntentsDoNotConflictWithEachOther) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId c1 = lm.Begin(), c2 = lm.Begin();
  ASSERT_TRUE(
      lm.Acquire(c1, {Sym("r"), kInsertLockBase + c1}, LockMode::kWa).ok());
  // Even under 2PL, two creators into one relation proceed in parallel.
  ASSERT_TRUE(
      lm.Acquire(c2, {Sym("r"), kInsertLockBase + c2}, LockMode::kWa).ok());
}

TEST(LockManager, RelationWaVictimizesTupleRcHolders) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId reader = lm.Begin(), bulk_writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple("r", 3), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(bulk_writer, Relation("r"), LockMode::kWa).ok());
  auto victims = lm.CollectRcVictims(bulk_writer);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], reader);
}

TEST(LockManager, TupleRcInOtherRelationIsUnaffected) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId reader = lm.Begin(), writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader, Tuple("other", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());
  EXPECT_TRUE(lm.CollectRcVictims(writer).empty());
}

TEST(LockManager, TwoPhaseRelationRcBlocksInsertIntent) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId neg_reader = lm.Begin(), creator = lm.Begin();
  ASSERT_TRUE(lm.Acquire(neg_reader, Relation("r"), LockMode::kRc).ok());
  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(lm.Acquire(creator, {Sym("r"), kInsertLockBase + creator},
                           LockMode::kWa)
                    .ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.Release(neg_reader);
  blocked.join();
}

// --- abort marking ---------------------------------------------------------

TEST(LockManager, MarkAbortedFailsFutureAcquires) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  lm.MarkAborted(t);
  EXPECT_TRUE(lm.IsAborted(t));
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).IsAborted());
}

TEST(LockManager, MarkAbortedWakesBlockedAcquire) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId holder = lm.Begin(), waiter = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, Tuple("r", 1), LockMode::kWa).ok());
  auto result = std::async(std::launch::async, [&] {
    return lm.Acquire(waiter, Tuple("r", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  lm.MarkAborted(waiter);
  EXPECT_TRUE(result.get().IsAborted());
}

// --- deadlocks ------------------------------------------------------------

TEST(LockManager, DeadlockDetected) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple("r", 2), LockMode::kWa).ok());

  // t1 waits for 2; t2 requesting 1 closes the cycle and must die.
  auto t1_wait = std::async(std::launch::async, [&] {
    return lm.Acquire(t1, Tuple("r", 2), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status st = lm.Acquire(t2, Tuple("r", 1), LockMode::kWa);
  EXPECT_TRUE(st.IsDeadlock()) << st;
  lm.Release(t2);
  EXPECT_TRUE(t1_wait.get().ok());
  EXPECT_GE(lm.GetStats().deadlocks, 1u);
}

TEST(LockManager, UpgradeDeadlockDetected) {
  // Two Rc holders both upgrading to Wa under 2PL: classic lock-upgrade
  // deadlock.
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("r", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple("r", 1), LockMode::kRc).ok());
  auto t1_wait = std::async(std::launch::async, [&] {
    return lm.Acquire(t1, Tuple("r", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status st = lm.Acquire(t2, Tuple("r", 1), LockMode::kWa);
  EXPECT_TRUE(st.IsDeadlock());
  lm.Release(t2);
  EXPECT_TRUE(t1_wait.get().ok());
}

TEST(LockManager, NoFalseDeadlockOnSharedWait) {
  // Two waiters on the same holder is a chain, not a cycle.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId holder = lm.Begin(), w1 = lm.Begin(), w2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, Tuple("r", 1), LockMode::kWa).ok());
  auto f1 = std::async(std::launch::async, [&] {
    return lm.Acquire(w1, Tuple("r", 1), LockMode::kRc);
  });
  auto f2 = std::async(std::launch::async, [&] {
    return lm.Acquire(w2, Tuple("r", 1), LockMode::kRc);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  lm.Release(holder);
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
}

// --- release & bookkeeping ---------------------------------------------

TEST(LockManager, ReleaseWakesWaiters) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId holder = lm.Begin(), waiter = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, Tuple("r", 1), LockMode::kWa).ok());
  auto pending = std::async(std::launch::async, [&] {
    return lm.Acquire(waiter, Tuple("r", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  lm.Release(holder);
  EXPECT_TRUE(pending.get().ok());
  EXPECT_EQ(lm.live_transactions(), 1u);
}

TEST(LockManager, StatsAccumulate) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(t, Tuple("r", 2), LockMode::kRa).ok());
  EXPECT_EQ(lm.GetStats().acquired, 2u);
  lm.Release(t);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(LockManager, TraceEventsEmitted) {
  std::vector<LockEvent::Kind> kinds;
  LockManager::Options options = FastOptions(LockProtocol::kRcRaWa);
  options.trace = [&kinds](const LockEvent& event) {
    kinds.push_back(event.kind);
  };
  LockManager lm(options);
  TxnId t = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  lm.MarkAborted(t);
  lm.Release(t);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], LockEvent::Kind::kGrant);
  EXPECT_EQ(kinds[1], LockEvent::Kind::kAbortMark);
  EXPECT_EQ(kinds[2], LockEvent::Kind::kRelease);
}

TEST(LockObjectId, ToStringForms) {
  EXPECT_NE(Tuple("rel-a", 3).ToString().find("#3"), std::string::npos);
  EXPECT_NE(Relation("rel-a").ToString().find("*"), std::string::npos);
  LockObjectId intent{Sym("rel-a"), kInsertLockBase + 2};
  EXPECT_NE(intent.ToString().find("insert"), std::string::npos);
}

TEST(LockManager, ReleaseUnknownTxnIsCountedNoOp) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  // A transaction id that was never begun: safe no-op, counted.
  lm.Release(12345);
  EXPECT_EQ(lm.GetStats().unknown_releases, 1u);
  // Double release — e.g. a session tearing down a transaction the
  // engine already rolled back — must also be a safe no-op.
  TxnId t = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
  lm.Release(t);
  lm.Release(t);
  EXPECT_EQ(lm.GetStats().unknown_releases, 2u);
  EXPECT_EQ(lm.live_transactions(), 0u);
  // A fresh transaction still works after the stray releases.
  TxnId t2 = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t2, Tuple("r", 1), LockMode::kWa).ok());
}

// --- blocking escalation (starvation guarantee) ------------------------

TEST(LockManager, BlockingTxnRcBlocksWaUnderRcRaWa) {
  // A blocking (escalated) transaction's Rc uses the 2PL matrix even
  // under kRcRaWa: a writer's Wa request WAITS instead of being granted
  // over it — so the committer can never victimize the escalated reader.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId reader = lm.Begin(), writer = lm.Begin();
  lm.SetBlocking(reader);
  EXPECT_TRUE(lm.IsBlocking(reader));
  EXPECT_EQ(lm.GetStats().blocking_txns, 1u);
  ASSERT_TRUE(lm.Acquire(reader, Tuple("r", 1), LockMode::kRc).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());  // Wa-over-Rc grant is suspended
  lm.Release(reader);
  blocked.join();
}

TEST(LockManager, BlockingTxnWaitsBehindOutstandingWa) {
  // Symmetric direction: escalation must not weaken the protocol — an
  // escalated transaction still waits behind an already-granted Wa
  // (Rc-over-Wa is denied in both matrices), it never jumps ahead.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId writer = lm.Begin(), reader = lm.Begin();
  lm.SetBlocking(reader);
  ASSERT_TRUE(lm.Acquire(writer, Tuple("r", 5), LockMode::kWa).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(lm.Acquire(reader, Relation("r"), LockMode::kRc).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.Release(writer);
  blocked.join();
}

TEST(LockManager, BlockingHolderIsNeverAVictim) {
  // normal and escalated both hold Rc on the same tuple. The writer's Wa
  // is NOT granted over the mix (the escalated holder forces the 2PL
  // cell), so the writer waits until the escalated reader commits — an
  // escalated firing can never appear in a committer's victim list. The
  // normal Rc holder, released later, is victimized as usual.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId normal = lm.Begin(), escalated = lm.Begin(), writer = lm.Begin();
  lm.SetBlocking(escalated);
  ASSERT_TRUE(lm.Acquire(normal, Tuple("r", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(escalated, Tuple("r", 1), LockMode::kRc).ok());

  std::atomic<bool> granted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(lm.Acquire(writer, Tuple("r", 1), LockMode::kWa).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.Release(escalated);  // the escalated reader commits untouched
  blocked.join();
  // Now the Wa is granted over the remaining (normal) Rc holder, and
  // settlement victimizes exactly that one.
  auto victims = lm.CollectRcVictims(writer);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], normal);
}

// --- injected lock faults ----------------------------------------------

class LockFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisableAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisableAll(); }
};

TEST_F(LockFailpointTest, InjectedTimeoutSurfacesAsLockTimeout) {
  FailpointSpec spec;
  spec.one_in = 1;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Configure("lock.acquire.timeout", spec);

  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  Status st = lm.Acquire(t, Tuple("r", 1), LockMode::kRc);
  EXPECT_TRUE(st.IsLockTimeout()) << st;
  EXPECT_EQ(lm.GetStats().timeouts, 1u);
  // The next acquire (failpoint exhausted) succeeds: spurious timeouts
  // are transient, not sticky.
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 1), LockMode::kRc).ok());
}

TEST_F(LockFailpointTest, InjectedWoundAbortsTheTransaction) {
  FailpointSpec spec;
  spec.one_in = 1;
  spec.max_fires = 1;
  FailpointRegistry::Instance().Configure("lock.acquire.wound", spec);

  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  Status st = lm.Acquire(t, Tuple("r", 1), LockMode::kRc);
  EXPECT_TRUE(st.IsAborted()) << st;
  EXPECT_TRUE(lm.IsAborted(t));
  EXPECT_GE(lm.GetStats().wounds, 1u);
  // A wound is sticky for the wounded transaction...
  EXPECT_TRUE(lm.Acquire(t, Tuple("r", 2), LockMode::kRc).IsAborted());
  lm.Release(t);
  // ...but a fresh transaction is unaffected.
  TxnId t2 = lm.Begin();
  EXPECT_TRUE(lm.Acquire(t2, Tuple("r", 1), LockMode::kRc).ok());
}

// --- Figure 4.3 / 4.4 scenarios at the lock level ----------------------

TEST(LockManager, Figure43CommitFirstWins) {
  // Pj holds Rc(q); Pi holds Wa(q). Whoever commits first decides:
  // (a) Pj commits first: it just releases; Pi proceeds — serial PjPi.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId pj = lm.Begin(), pi = lm.Begin();
  ASSERT_TRUE(lm.Acquire(pj, Tuple("q", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(pi, Tuple("q", 1), LockMode::kWa).ok());

  EXPECT_TRUE(lm.CollectRcVictims(pj).empty());  // Pj has no Wa set
  lm.Release(pj);                                 // Pj commits
  EXPECT_TRUE(lm.CollectRcVictims(pi).empty());  // nobody left to abort
  lm.Release(pi);
}

TEST(LockManager, Figure43CommitSecondAborts) {
  // (b) Pi (the writer) commits first: every Rc holder on q aborts.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId pj = lm.Begin(), pi = lm.Begin();
  ASSERT_TRUE(lm.Acquire(pj, Tuple("q", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(pi, Tuple("q", 1), LockMode::kWa).ok());

  auto victims = lm.CollectRcVictims(pi);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], pj);
  lm.MarkAborted(pj);
  lm.Release(pi);
  EXPECT_TRUE(lm.IsAborted(pj));
}

TEST(LockManager, Figure44CircularConflictOnlyOneSurvives) {
  // Pi: Rc(q), Wa(r).  Pj: Rc(r), Wa(q). No blocking occurs, and the
  // first committer always victimizes the other.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId pi = lm.Begin(), pj = lm.Begin();
  ASSERT_TRUE(lm.Acquire(pi, Tuple("d", 1), LockMode::kRc).ok());  // q
  ASSERT_TRUE(lm.Acquire(pj, Tuple("d", 2), LockMode::kRc).ok());  // r
  ASSERT_TRUE(lm.Acquire(pi, Tuple("d", 2), LockMode::kWa).ok());  // r
  ASSERT_TRUE(lm.Acquire(pj, Tuple("d", 1), LockMode::kWa).ok());  // q

  auto pi_victims = lm.CollectRcVictims(pi);
  auto pj_victims = lm.CollectRcVictims(pj);
  ASSERT_EQ(pi_victims.size(), 1u);
  ASSERT_EQ(pj_victims.size(), 1u);
  EXPECT_EQ(pi_victims[0], pj);
  EXPECT_EQ(pj_victims[0], pi);
}

// --- several relations, counters, the trace sink -------------------------

TEST(LockManager, DeadlockCycleAcrossTwoRelations) {
  // Each transaction's wait is on an object of a different relation; the
  // waits-for graph spans relations, so the cycle is still found.
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("cycle-a", 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple("cycle-b", 1), LockMode::kWa).ok());

  // t1 blocks on t2's object in relation b...
  auto blocked = std::async(std::launch::async, [&] {
    return lm.Acquire(t1, Tuple("cycle-b", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...then t2 requests t1's object in relation a, closing the cycle.
  Status st2 = lm.Acquire(t2, Tuple("cycle-a", 1), LockMode::kWa);
  if (st2.IsDeadlock()) {
    // The common order: t1's wait was registered first, so t2's request
    // closed the cycle and t2 is the victim. Its release unblocks t1.
    lm.Release(t2);
    Status st1 = blocked.get();
    EXPECT_TRUE(st1.ok()) << st1.ToString();
  } else {
    // Rare order (t2's request beat t1's block): t1 closed the cycle.
    Status st1 = blocked.get();
    EXPECT_TRUE(st1.IsDeadlock()) << st1.ToString();
    // t2 stays blocked behind t1's surviving Wa hold until the timeout;
    // either outcome is fine — no cycle remains.
    EXPECT_TRUE(st2.ok() || st2.IsLockTimeout()) << st2.ToString();
    lm.Release(t2);
  }
  EXPECT_GE(lm.GetStats().deadlocks, 1u);
  lm.Release(t1);
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(LockManager, RcVictimsAcrossRelations) {
  // Readers: tuple-level Rc in relation a, tuple-level and relation-level
  // Rc in relation b. One reader (both_reader) reads in both relations —
  // the victim set must still name it once.
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId reader_a = lm.Begin(), reader_b = lm.Begin(),
        rel_reader_b = lm.Begin(), both_reader = lm.Begin(),
        bystander = lm.Begin();
  ASSERT_TRUE(lm.Acquire(reader_a, Tuple("victim-a", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(reader_b, Tuple("victim-b", 2), LockMode::kRc).ok());
  ASSERT_TRUE(
      lm.Acquire(rel_reader_b, Relation("victim-b"), LockMode::kRc).ok());
  ASSERT_TRUE(
      lm.Acquire(both_reader, Tuple("victim-a", 1), LockMode::kRc).ok());
  ASSERT_TRUE(
      lm.Acquire(both_reader, Tuple("victim-b", 2), LockMode::kRc).ok());
  // Unrelated tuple: must NOT be victimized.
  ASSERT_TRUE(
      lm.Acquire(bystander, Tuple("victim-a", 99), LockMode::kRc).ok());

  // The committer's Wa set spans both relations.
  TxnId writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, Tuple("victim-a", 1), LockMode::kWa).ok());
  ASSERT_TRUE(lm.Acquire(writer, Tuple("victim-b", 2), LockMode::kWa).ok());

  std::vector<TxnId> victims = lm.CollectRcVictims(writer);
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(victims, (std::vector<TxnId>{reader_a, reader_b, rel_reader_b,
                                         both_reader}));

  for (TxnId t :
       {reader_a, reader_b, rel_reader_b, both_reader, bystander, writer}) {
    lm.Release(t);
  }
  EXPECT_EQ(lm.live_transactions(), 0u);
}

TEST(LockManager, TableCountersAccountForEveryGrant) {
  LockManager lm(FastOptions(LockProtocol::kRcRaWa));
  TxnId t = lm.Begin();
  for (WmeId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(lm.Acquire(t, Tuple("count-a", id), LockMode::kRc).ok());
  }
  ASSERT_TRUE(lm.Acquire(t, Tuple("count-b", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(t, Relation("count-b"), LockMode::kRc).ok());
  lm.Release(t);

  LockManager::Stats stats = lm.GetStats();
  // One lock table, one entry (the benchmark harness reads shards[i]).
  ASSERT_EQ(stats.shards.size(), 1u);
  // The six uncontended tuple grants were fast; the relation-level one
  // is always slow. Fast plus slow grants are every grant.
  EXPECT_EQ(stats.fast_path_grants, 6u);
  EXPECT_EQ(stats.shards[0].fast_path_grants, 6u);
  EXPECT_EQ(stats.shards[0].acquires, 1u);
  EXPECT_EQ(stats.shards[0].acquires + stats.shards[0].fast_path_grants,
            stats.acquired);
}

TEST(LockManager, WaitCountersCountBlockedAcquires) {
  LockManager lm(FastOptions(LockProtocol::kTwoPhase));
  TxnId holder = lm.Begin(), waiter = lm.Begin();
  ASSERT_TRUE(lm.Acquire(holder, Tuple("wait-counter", 1), LockMode::kWa).ok());
  auto blocked = std::async(std::launch::async, [&] {
    return lm.Acquire(waiter, Tuple("wait-counter", 1), LockMode::kWa);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  lm.Release(holder);
  ASSERT_TRUE(blocked.get().ok());
  lm.Release(waiter);

  EXPECT_GE(lm.GetStats().shards[0].waits, 1u);
  EXPECT_GE(lm.GetStats().blocked, 1u);
}

// Events are buffered inside the manager's critical sections and emitted
// only after every internal lock is dropped, so a sink may call straight
// back into the manager.

TEST(LockManager, TraceSinkMayReenterTheManager) {
  LockManager* manager = nullptr;
  std::mutex sink_mu;
  std::vector<LockEvent> events;

  LockManager::Options options = FastOptions(LockProtocol::kRcRaWa);
  options.trace = [&](const LockEvent& event) {
    // Reentrancy: query the manager from inside the sink.
    if (manager != nullptr) {
      (void)manager->IsAborted(event.txn);
      (void)manager->Holds(event.txn, event.object, event.mode);
      (void)manager->GetStats();
    }
    std::lock_guard<std::mutex> lock(sink_mu);
    events.push_back(event);
  };
  LockManager lm(options);
  manager = &lm;

  TxnId t1 = lm.Begin(), t2 = lm.Begin();
  ASSERT_TRUE(lm.Acquire(t1, Tuple("trace-rel", 1), LockMode::kRc).ok());
  ASSERT_TRUE(lm.Acquire(t2, Tuple("trace-rel", 1), LockMode::kWa).ok());
  for (TxnId victim : lm.CollectRcVictims(t2)) lm.MarkAborted(victim);
  lm.Release(t1);
  lm.Release(t2);

  std::lock_guard<std::mutex> lock(sink_mu);
  auto count = [&](LockEvent::Kind kind) {
    return std::count_if(events.begin(), events.end(),
                         [&](const LockEvent& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(LockEvent::Kind::kGrant), 2);
  EXPECT_EQ(count(LockEvent::Kind::kAbortMark), 1);
  EXPECT_EQ(count(LockEvent::Kind::kRelease), 2);
}

/// Hammer one manager from many threads with the reentrant sink attached:
/// under TSan this is the no-lock-held-at-emission proof.
TEST(LockManager, ConcurrentTrafficWithReentrantSink) {
  LockManager* manager = nullptr;
  std::atomic<uint64_t> observed{0};

  // A short wait: a conflicting request gives up with kLockTimeout
  // instead of holding its thread for the default 2 s.
  LockManager::Options options = FastOptions(LockProtocol::kRcRaWa);
  options.wait_timeout = std::chrono::milliseconds(5);
  options.trace = [&](const LockEvent& event) {
    if (manager != nullptr) (void)manager->IsAborted(event.txn);
    observed.fetch_add(1, std::memory_order_relaxed);
  };
  LockManager lm(options);
  manager = &lm;

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        TxnId txn = lm.Begin();
        LockObjectId object{Sym("hammer-" + std::to_string(op % 7)),
                            static_cast<WmeId>(op % 5)};
        (void)lm.Acquire(txn, object, LockMode::kRc);
        if ((op + i) % 3 == 0) {
          if (lm.Acquire(txn, object, LockMode::kWa).ok()) {
            for (TxnId victim : lm.CollectRcVictims(txn)) {
              lm.MarkAborted(victim);
            }
          }
        }
        lm.Release(txn);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(lm.live_transactions(), 0u);
  EXPECT_GT(observed.load(), 0u);
}

}  // namespace
}  // namespace dbps
