#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "engine/parallel_engine.h"
#include "engine/single_thread_engine.h"
#include "lang/compiler.h"
#include "semantics/replay_validator.h"
#include "testing/workloads.h"
#include "util/failpoint.h"

namespace dbps {
namespace {

struct ProtocolCase {
  LockProtocol protocol;
  AbortPolicy policy;
};

class ParallelEngineTest : public ::testing::TestWithParam<ProtocolCase> {
 protected:
  ParallelEngineOptions Options(size_t workers = 4) {
    ParallelEngineOptions options;
    options.num_workers = workers;
    options.protocol = GetParam().protocol;
    options.abort_policy = GetParam().policy;
    return options;
  }
};

TEST_P(ParallelEngineTest, ConsumesAllTokens) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation t (v int))
(rule consume (t ^v <v>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(wm.Insert("t", {Value::Int(i)}).ok());
  }
  auto pristine = wm.Clone();
  ParallelEngine engine(&wm, rules, Options());
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 50u);
  EXPECT_EQ(wm.Count(Sym("t")), 0u);
  EXPECT_TRUE(ValidateReplay(pristine.get(), rules, result.log).ok());
}

TEST_P(ParallelEngineTest, HaltStopsFurtherClaims) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation t (v int))
(rule one (t ^v <v>) --> (remove 1) (halt))
)",
                           &wm)
                   .ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wm.Insert("t", {Value::Int(i)}).ok());
  }
  ParallelEngine engine(&wm, rules, Options());
  auto result = engine.Run().ValueOrDie();
  EXPECT_TRUE(result.stats.halted);
  // At least one halt fired; in-flight firings may commit, but most
  // tokens must survive.
  EXPECT_GE(result.stats.firings, 1u);
  EXPECT_LE(result.stats.firings, 4u);  // <= num_workers
  EXPECT_GE(wm.Count(Sym("t")), 16u);
}

TEST_P(ParallelEngineTest, MaxFiringsRespected) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation t (v int))
(rule spin (t ^v <v>) --> (modify 1 ^v (+ <v> 1)))
(make t ^v 0)
(make t ^v 100)
)",
                           &wm)
                   .ValueOrDie();
  ParallelEngineOptions options = Options(2);
  options.base.max_firings = 30;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_LE(result.stats.firings, 30u);
  EXPECT_TRUE(result.stats.hit_max_firings);
}

// Regression: claims still in flight count against max_firings. With
// workers far outnumbering cores and eight independent tuples to fire
// on, several claims race for the last slot on every run; the budget
// must still come out exact, repetition after repetition.
TEST_P(ParallelEngineTest, MaxFiringsExactUnderOversubscription) {
  const size_t workers =
      4 * std::max<size_t>(1, std::thread::hardware_concurrency());
  for (int rep = 0; rep < 25; ++rep) {
    WorkingMemory wm;
    auto rules = LoadProgram(R"(
(relation t (v int))
(rule spin (t ^v <v>) --> (modify 1 ^v (+ <v> 1)))
)",
                             &wm)
                     .ValueOrDie();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(wm.Insert("t", {Value::Int(100 * i)}).ok());
    }
    ParallelEngineOptions options = Options(workers);
    options.base.max_firings = 30;
    ParallelEngine engine(&wm, rules, options);
    auto result = engine.Run().ValueOrDie();
    ASSERT_EQ(result.stats.firings, 30u) << "repetition " << rep;
    EXPECT_TRUE(result.stats.hit_max_firings);
  }
}

TEST_P(ParallelEngineTest, SharedCounterStaysExact) {
  // All workers increment the same counter tuple: every committed firing
  // must be serialized correctly — the final value equals the number of
  // committed firings.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation counter (v int))
(rule bump (counter ^v { < 40 } ^v <v>) --> (modify 1 ^v (+ <v> 1)))
(make counter ^v 0)
)",
                           &wm)
                   .ValueOrDie();
  auto pristine = wm.Clone();
  ParallelEngine engine(&wm, rules, Options(8));
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 40u);
  EXPECT_EQ(wm.Scan(Sym("counter"))[0]->value(0), Value::Int(40));
  EXPECT_TRUE(ValidateReplay(pristine.get(), rules, result.log).ok());
}

TEST_P(ParallelEngineTest, LogisticsWorkloadIsConsistent) {
  RuleSetPtr rules;
  auto wm = testing::MakeLogisticsWm(10, 5, 6, &rules);
  auto pristine = wm->Clone();
  ParallelEngine engine(wm.get(), rules, Options(6));
  auto result = engine.Run().ValueOrDie();
  EXPECT_FALSE(result.stats.hit_max_firings);
  // The workload can physically strand boxes (a stalled robot never
  // revisits a site), so completeness is not guaranteed — but progress
  // and the logical invariants are.
  EXPECT_GE(wm->Count(Sym("done")), 5u);
  // Every accounted box is delivered, and accounted exactly once.
  std::set<int64_t> accounted;
  for (const auto& done : wm->Scan(Sym("done"))) {
    EXPECT_TRUE(accounted.insert(done->value(0).AsInt()).second);
  }
  for (const auto& box : wm->Scan(Sym("box"))) {
    if (accounted.count(box->value(0).AsInt()) > 0) {
      EXPECT_EQ(box->value(3), Value::Symbol("delivered"));
    }
  }
  Status valid = ValidateReplay(pristine.get(), rules, result.log);
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST_P(ParallelEngineTest, SingleWorkerMatchesSingleThreadOutcome) {
  RuleSetPtr rules;
  auto wm_parallel = testing::MakeLogisticsWm(6, 3, 4, &rules);
  auto wm_single = wm_parallel->Clone();

  ParallelEngine parallel(wm_parallel.get(), rules, Options(1));
  auto parallel_result = parallel.Run().ValueOrDie();

  SingleThreadEngine single(wm_single.get(), rules);
  auto single_result = single.Run().ValueOrDie();

  EXPECT_EQ(parallel_result.stats.firings, single_result.stats.firings);
  EXPECT_EQ(wm_parallel->Count(Sym("done")), wm_single->Count(Sym("done")));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ParallelEngineTest,
    ::testing::Values(
        ProtocolCase{LockProtocol::kTwoPhase, AbortPolicy::kAbort},
        ProtocolCase{LockProtocol::kRcRaWa, AbortPolicy::kAbort},
        ProtocolCase{LockProtocol::kRcRaWa, AbortPolicy::kRevalidate}),
    [](const auto& info) {
      std::string name = info.param.protocol == LockProtocol::kTwoPhase
                             ? "TwoPhase"
                             : "RcRaWa";
      if (info.param.protocol == LockProtocol::kRcRaWa) {
        name += info.param.policy == AbortPolicy::kAbort ? "Abort"
                                                         : "Revalidate";
      }
      return name;
    });

// --- interference-aware claims --------------------------------------------

// The §5 jobs program: every job is a chain of `steps` firings on its own
// tuple; "shared" jobs also bump one hub tuple on every firing.
std::string JobsProgram(int64_t cost_us) {
  const std::string cost = std::to_string(cost_us);
  return R"((relation job (id int) (kind symbol) (steps int))
(relation hub (v int))
(rule work-local :cost )" +
         cost + R"(
  (job ^kind local ^steps { > 0 } ^steps <s>)
  -->
  (modify 1 ^steps (- <s> 1)))
(rule work-shared :cost )" +
         cost + R"(
  (job ^kind shared ^steps { > 0 } ^steps <s>)
  (hub ^v <h>)
  -->
  (modify 1 ^steps (- <s> 1))
  (modify 2 ^v (+ <h> 1)))
(make hub ^v 0)
)";
}

struct JobsCase {
  int64_t cost_us;
  size_t workers_per_core;  ///< 0: exactly 4 workers
  int shared_every;         ///< every Nth job shares the hub
};

class InterferenceAwareClaimTest : public ::testing::TestWithParam<JobsCase> {
};

// Claims never pick a firing that an in-flight firing dooms, so on this
// program — tuple-level conflicts only — no firing is ever a victim and
// no lock request ever waits, at any worker count and any action length.
// Both are counts, not timings: they hold on every schedule.
TEST_P(InterferenceAwareClaimTest, NoAbortsNoBlocksExactFirings) {
  const JobsCase param = GetParam();
  constexpr int kJobs = 16;
  constexpr int kSteps = 12;
  const size_t workers =
      param.workers_per_core == 0
          ? 4
          : param.workers_per_core *
                std::max<size_t>(1, std::thread::hardware_concurrency());
  for (LockProtocol protocol :
       {LockProtocol::kRcRaWa, LockProtocol::kTwoPhase}) {
    WorkingMemory wm;
    auto rules = LoadProgram(JobsProgram(param.cost_us), &wm).ValueOrDie();
    int shared = 0;
    for (int j = 0; j < kJobs; ++j) {
      const bool is_shared = j % param.shared_every == 0;
      shared += is_shared;
      ASSERT_TRUE(wm.Insert("job", {Value::Int(j),
                                    Value::Symbol(is_shared ? "shared"
                                                            : "local"),
                                    Value::Int(kSteps)})
                      .ok());
    }
    auto pristine = wm.Clone();
    ParallelEngineOptions options;
    options.num_workers = workers;
    options.protocol = protocol;
    options.base.cost_model = CostModel::kBusySpin;
    ParallelEngine engine(&wm, rules, options);
    auto result = engine.Run().ValueOrDie();
    const std::string where = std::string(LockProtocolToString(protocol)) +
                              " workers=" + std::to_string(workers);
    EXPECT_EQ(result.stats.firings, static_cast<uint64_t>(kJobs * kSteps))
        << where;
    EXPECT_FALSE(result.stats.hit_max_firings) << where;
    EXPECT_EQ(result.stats.aborts, 0u) << where;
    EXPECT_EQ(result.stats.stale_skips, 0u) << where;
    EXPECT_EQ(engine.lock_stats().blocked, 0u) << where;
    ASSERT_EQ(wm.Scan(Sym("hub")).size(), 1u);
    EXPECT_EQ(wm.Scan(Sym("hub"))[0]->value(0),
              Value::Int(static_cast<int64_t>(shared) * kSteps))
        << where;
    Status valid = ValidateReplay(pristine.get(), rules, result.log);
    EXPECT_TRUE(valid.ok()) << where << ": " << valid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    JobsAndHub, InterferenceAwareClaimTest,
    ::testing::Values(
        // A quarter of the jobs share the hub (the §5 operating point).
        JobsCase{0, 0, 4}, JobsCase{0, 4, 4}, JobsCase{20, 0, 4},
        JobsCase{20, 4, 4},
        // Every job shares the hub: each claim skips all but one
        // candidate, so firings run one at a time — and must still all
        // run, with the waiting workers woken as each one finishes.
        JobsCase{0, 4, 1}, JobsCase{20, 4, 1}),
    [](const auto& info) {
      return "cost" + std::to_string(info.param.cost_us) +
             (info.param.workers_per_core == 0
                  ? std::string("_Np4")
                  : "_Np" + std::to_string(info.param.workers_per_core) +
                        "xCores") +
             (info.param.shared_every == 1 ? "_AllShareHub"
                                           : "_QuarterShareHub");
    });

// --- targeted interference scenarios ------------------------------------

// A make-if-absent rule blocks itself when it commits, and a consumer that
// removes what it made re-activates the very same instantiation key (same
// trigger WME, same tag). That re-activation can land while the first
// firing's claim is still in flight — the release window below holds every
// worker there after its commit — and must survive as a new firing. Any
// serial run ends with every trigger's x present and the budget spent, so
// it fires make-x budget + triggers times and eat-x budget times: a lost
// re-activation shows up as a run that quiesces short of that count.
TEST(ParallelEngineScenarios, ReactivationDuringReleaseWindowStillFires) {
  constexpr int kTriggers = 3;
  constexpr int kBudget = 20;
  struct DisableFailpoints {
    ~DisableFailpoints() { FailpointRegistry::Instance().DisableAll(); }
  } disable;
  for (LockProtocol protocol :
       {LockProtocol::kRcRaWa, LockProtocol::kTwoPhase}) {
    FailpointRegistry::Instance().DisableAll();
    FailpointSpec window;
    window.probability = 1.0;
    window.delay = std::chrono::microseconds(2000);
    FailpointRegistry::Instance().Configure("engine.firing.release_window",
                                            window);
    WorkingMemory wm;
    auto rules = LoadProgram(R"(
(relation trigger (id int))
(relation x (id int))
(relation budget (left int))
(rule make-x
  (trigger ^id <i>)
  -(x ^id <i>)
  -->
  (make x ^id <i>))
(rule eat-x
  (x ^id <i>)
  (budget ^left { > 0 } ^left <b>)
  -->
  (remove 1)
  (modify 2 ^left (- <b> 1)))
)",
                             &wm)
                     .ValueOrDie();
    for (int i = 0; i < kTriggers; ++i) {
      ASSERT_TRUE(wm.Insert("trigger", {Value::Int(i)}).ok());
    }
    ASSERT_TRUE(wm.Insert("budget", {Value::Int(kBudget)}).ok());
    auto pristine = wm.Clone();
    ParallelEngineOptions options;
    options.num_workers = 4;
    options.protocol = protocol;
    ParallelEngine engine(&wm, rules, options);
    auto result = engine.Run().ValueOrDie();
    const std::string where = LockProtocolToString(protocol);
    EXPECT_EQ(result.stats.firings,
              static_cast<uint64_t>(2 * kBudget + kTriggers))
        << where;
    EXPECT_FALSE(result.stats.hit_max_firings) << where;
    EXPECT_EQ(wm.Count(Sym("x")), static_cast<size_t>(kTriggers)) << where;
    ASSERT_EQ(wm.Scan(Sym("budget")).size(), 1u);
    EXPECT_EQ(wm.Scan(Sym("budget"))[0]->value(0), Value::Int(0)) << where;
    Status valid = ValidateReplay(pristine.get(), rules, result.log);
    EXPECT_TRUE(valid.ok()) << where << ": " << valid;
  }
}

// Figure 4.4: two productions in circular Rc/Wa conflict — each reads
// what the other writes. Exactly one of the two can commit from any
// given state; the run must stay consistent.
TEST(ParallelEngineScenarios, CircularConflictOnlyOneCommitsPerRound) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation cell (name symbol) (v int))
(rule left
  (cell ^name q ^v { > 0 })
  (cell ^name r ^v { > 0 })
  -->
  (modify 2 ^v 0))
(rule right
  (cell ^name r ^v { > 0 })
  (cell ^name q ^v { > 0 })
  -->
  (modify 2 ^v 0))
(make cell ^name q ^v 1)
(make cell ^name r ^v 1)
)",
                           &wm)
                   .ValueOrDie();
  auto pristine = wm.Clone();
  ParallelEngineOptions options;
  options.num_workers = 2;
  options.protocol = LockProtocol::kRcRaWa;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  // Whatever interleaving happened, the log must be a valid serial one.
  Status valid = ValidateReplay(pristine.get(), rules, result.log);
  EXPECT_TRUE(valid.ok()) << valid;
  // Firing `left` zeroes r, which disables `right`, and vice versa — so
  // exactly one of the two can ever commit (the paper: "the commitment
  // of one production always forces the other to abort").
  EXPECT_EQ(result.stats.firings, 1u);
}

// The paper's negation scenario: a creator (insert intent Wa) conflicts
// with a negation holder (relation-level Rc). Under 2PL the creator
// blocks; under Rc/Ra/Wa it proceeds and the negation holder aborts at
// the creator's commit. Both must end consistent.
TEST(ParallelEngineScenarios, CreatorVsNegationHolder) {
  for (LockProtocol protocol :
       {LockProtocol::kTwoPhase, LockProtocol::kRcRaWa}) {
    WorkingMemory wm;
    auto rules = LoadProgram(R"(
(relation job (id int) (state symbol))
(relation veto (job int))
(rule file-veto :priority 5
  (job ^id <j> ^state fresh)
  -->
  (modify 1 ^state vetoed)
  (make veto ^job <j>))
(rule approve :priority 5
  (job ^id <j> ^state fresh)
  -(veto ^job <j>)
  -->
  (modify 1 ^state approved))
)",
                             &wm)
                     .ValueOrDie();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          wm.Insert("job", {Value::Int(i), Value::Symbol("fresh")}).ok());
    }
    auto pristine = wm.Clone();
    ParallelEngineOptions options;
    options.num_workers = 4;
    options.protocol = protocol;
    ParallelEngine engine(&wm, rules, options);
    auto result = engine.Run().ValueOrDie();
    Status valid = ValidateReplay(pristine.get(), rules, result.log);
    EXPECT_TRUE(valid.ok()) << valid << " protocol "
                            << LockProtocolToString(protocol);
    // Every job ends either vetoed or approved, never fresh, never both
    // vetoed and approved (the rules are mutually exclusive per job).
    for (const auto& job : wm.Scan(Sym("job"))) {
      EXPECT_NE(job->value(1), Value::Symbol("fresh")) << job->ToString();
    }
    for (const auto& veto : wm.Scan(Sym("veto"))) {
      int64_t id = veto->value(0).AsInt();
      for (const auto& job : wm.Scan(Sym("job"))) {
        if (job->value(0).AsInt() == id) {
          EXPECT_EQ(job->value(1), Value::Symbol("vetoed"));
        }
      }
    }
  }
}

TEST(ParallelEngineScenarios, RcRaWaAbortsWhereTwoPhaseBlocks) {
  // High-contention update workload with long actions: the Rc/Ra/Wa
  // protocol should show aborts (the paper's wasted work) while 2PL
  // shows none (it blocks instead).
  auto build = [](WorkingMemory* wm) {
    auto rules = LoadProgram(R"(
(relation hot (id int) (v int))
(rule touch :cost 200
  (hot ^id <i> ^v { < 30 } ^v <v>)
  -->
  (modify 1 ^v (+ <v> 1)))
)",
                             wm)
                     .ValueOrDie();
    for (int i = 0; i < 2; ++i) {
      DBPS_CHECK(wm->Insert("hot", {Value::Int(i), Value::Int(0)}).ok());
    }
    return rules;
  };

  WorkingMemory wm_rc;
  auto rules = build(&wm_rc);
  ParallelEngineOptions rc_options;
  rc_options.num_workers = 8;
  rc_options.protocol = LockProtocol::kRcRaWa;
  auto rc_result = ParallelEngine(&wm_rc, rules, rc_options).Run()
                       .ValueOrDie();

  WorkingMemory wm_2pl;
  rules = build(&wm_2pl);
  ParallelEngineOptions two_options = rc_options;
  two_options.protocol = LockProtocol::kTwoPhase;
  auto two_result =
      ParallelEngine(&wm_2pl, rules, two_options).Run().ValueOrDie();

  EXPECT_EQ(rc_result.stats.firings, 60u);
  EXPECT_EQ(two_result.stats.firings, 60u);
  // 2PL never aborts via the Rc–Wa rule (only deadlocks could abort it).
  EXPECT_EQ(two_result.stats.aborts, two_result.stats.deadlocks);
}

}  // namespace
}  // namespace dbps
