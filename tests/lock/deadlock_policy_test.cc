// Deadlock handling (§4.3's remark that the standard 2PL schemes apply
// unchanged to Rc/Ra/Wa locking): waits-for detection is the one policy.
// Engine-level consistency under it for both protocols, and deadlocks
// that cross the rule/client boundary. The lock-level detection cases
// live in lock_manager_test and fast_path_test.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/parallel_engine.h"
#include "lang/compiler.h"
#include "lock/lock_manager.h"
#include "semantics/replay_validator.h"
#include "server/session_manager.h"

namespace dbps {
namespace {

std::string ProtocolName(LockProtocol protocol) {
  return protocol == LockProtocol::kTwoPhase ? "TwoPhase" : "RcRaWa";
}

// Engine-level: the contended-counter workload stays exact and replayable
// under detection with either protocol.
class DeadlockPolicyEngine
    : public ::testing::TestWithParam<std::tuple<LockProtocol>> {};

TEST_P(DeadlockPolicyEngine, ContendedCounterStaysConsistent) {
  const LockProtocol protocol = std::get<0>(GetParam());
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation counter (v int))
(rule bump (counter ^v { < 25 } ^v <v>) --> (modify 1 ^v (+ <v> 1)))
(make counter ^v 0)
)",
                           &wm)
                   .ValueOrDie();
  auto pristine = wm.Clone();
  ParallelEngineOptions options;
  options.num_workers = 6;
  options.protocol = protocol;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 25u);
  EXPECT_EQ(wm.Scan(Sym("counter"))[0]->value(0), Value::Int(25));
  Status valid = ValidateReplay(pristine.get(), rules, result.log);
  EXPECT_TRUE(valid.ok()) << valid;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DeadlockPolicyEngine,
    ::testing::Combine(::testing::Values(LockProtocol::kTwoPhase,
                                         LockProtocol::kRcRaWa)),
    [](const auto& info) {
      return ProtocolName(std::get<0>(info.param)) + "Detect";
    });

// --- mixed rule-firing + external-transaction deadlocks ----------------
//
// Client sessions and rule firings wait on each other's locks in both
// directions: the `respond` firing holds Wa on a req tuple and needs an
// insert intent into `ack`, while a client holds relation Rc on `ack`
// (repeatable read) and then needs relation Rc on `req` — a cycle across
// the rule/client boundary whenever the timing lines up. The requester
// that would close the cycle is refused with kDeadlock and retried (a
// firing by its worker, a client transaction by Session::Perform); every
// transaction must eventually get through and the log must stay
// replayable.

constexpr const char* kMixedDeadlockProgram = R"(
(relation req (id int))
(relation ack (id int))

(rule respond :cost 100
  (req ^id <i>)
  -(ack ^id <i>)
  -->
  (remove 1)
  (make ack ^id <i>))
)";

class MixedDeadlockTest
    : public ::testing::TestWithParam<std::tuple<LockProtocol>> {};

TEST_P(MixedDeadlockTest, ClientsAndFiringsResolveCrossBoundaryCycles) {
  const LockProtocol protocol = std::get<0>(GetParam());
  constexpr size_t kClients = 3;
  constexpr uint64_t kTxnsPerClient = 8;

  WorkingMemory wm;
  auto rules = LoadProgram(kMixedDeadlockProgram, &wm).ValueOrDie();
  auto pristine = wm.Clone();

  ServerOptions server_options;
  server_options.session.max_txn_retries = 64;  // ample under heavy conflict
  SessionManager manager(&wm, server_options);
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.protocol = protocol;
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result_or{Status::Internal("not run")};
  std::thread serve([&] { result_or = engine.Run(); });

  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session_or = manager.Connect("mixed-" + std::to_string(c));
      ASSERT_TRUE(session_or.ok()) << session_or.status();
      SessionPtr session = session_or.ValueOrDie();
      for (uint64_t i = 0; i < kTxnsPerClient; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          // Repeatable reads over both relations — the client side of
          // the cross-boundary cycle.
          auto acks_or = s.Read("ack");
          if (!acks_or.ok()) return acks_or.status();
          auto reqs_or = s.Read("req");
          if (!reqs_or.ok()) return reqs_or.status();
          Delta delta;
          delta.Create(Sym("req"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i))});
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        ASSERT_TRUE(st.ok())
            << "client " << c << " txn " << i << ": " << st;
        committed.fetch_add(1);
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();

  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RunResult& result = result_or.ValueOrDie();

  // Full progress on both sides of the boundary: every client request
  // committed and was answered by exactly one firing.
  const uint64_t expected = kClients * kTxnsPerClient;
  EXPECT_EQ(committed.load(), expected);
  EXPECT_EQ(result.stats.firings, expected);
  EXPECT_EQ(wm.Count(Sym("req")), 0u);
  EXPECT_EQ(wm.Count(Sym("ack")), expected);
  EXPECT_EQ(engine.live_lock_transactions(), 0u);
  // No waiter sat out its whole lock_timeout: every conflict clears with
  // a wake-up, so a wait that reaches its deadline is a lost wake-up.
  EXPECT_EQ(engine.lock_stats().expired_waits, 0u);
  EXPECT_EQ(engine.lock_stats().timeouts, 0u);

  // And the interleaved log is still a valid single-thread execution.
  Status replay = ValidateReplay(pristine.get(), rules, result.log);
  ASSERT_TRUE(replay.ok()) << replay;
  EXPECT_EQ(pristine->TotalCount(), wm.TotalCount());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MixedDeadlockTest,
    ::testing::Combine(::testing::Values(LockProtocol::kTwoPhase,
                                         LockProtocol::kRcRaWa)),
    [](const auto& info) {
      return ProtocolName(std::get<0>(info.param)) + "Detect";
    });

}  // namespace
}  // namespace dbps
