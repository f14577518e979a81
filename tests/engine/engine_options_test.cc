// Engine option coverage: cost models, log suppression, random strategy
// in parallel, escalation + policies end-to-end, stats fields.

#include <gtest/gtest.h>

#include "engine/busy_work.h"
#include "engine/parallel_engine.h"
#include "engine/single_thread_engine.h"
#include "lang/compiler.h"
#include "semantics/replay_validator.h"
#include "util/stopwatch.h"

namespace dbps {
namespace {

RuleSetPtr CostlyRules(WorkingMemory* wm, int tokens, int64_t cost_us) {
  std::string source = R"(
(relation t (v int))
(rule consume :cost )" + std::to_string(cost_us) +
                       R"(
  (t ^v <v>) --> (remove 1))
)";
  auto rules = LoadProgram(source, wm).ValueOrDie();
  for (int i = 0; i < tokens; ++i) {
    DBPS_CHECK(wm->Insert("t", {Value::Int(i)}).ok());
  }
  return rules;
}

TEST(CostModel, SleepOverlapsAcrossWorkers) {
  WorkingMemory wm;
  auto rules = CostlyRules(&wm, 8, 3000);
  ParallelEngineOptions options;
  options.num_workers = 8;
  options.base.cost_model = CostModel::kSleep;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  // The 3 ms sleeps overlapped: at least two ran at once. (A wall-clock
  // bound would also fail on a loaded host, where it proves nothing.)
  EXPECT_EQ(result.stats.firings, 8u);
  EXPECT_GE(result.stats.peak_parallel_executions, 2);
}

TEST(CostModel, DisablingSimulateCostSkipsCosts) {
  WorkingMemory wm;
  auto rules = CostlyRules(&wm, 4, 50000);  // 50ms each if honoured
  EngineOptions options;
  options.simulate_cost = false;
  SingleThreadEngine engine(&wm, rules, options);
  Stopwatch stopwatch;
  auto result = engine.Run().ValueOrDie();
  EXPECT_LT(stopwatch.ElapsedSeconds(), 0.05);
  EXPECT_EQ(result.stats.firings, 4u);
}

TEST(CostModel, BusySpinActuallySpins) {
  Stopwatch stopwatch;
  SimulateCost(2000, CostModel::kBusySpin);
  EXPECT_GE(stopwatch.ElapsedMicros(), 1900);
  EXPECT_STREQ(CostModelToString(CostModel::kSleep), "sleep");
  EXPECT_STREQ(CostModelToString(CostModel::kBusySpin), "busy-spin");
  // Non-positive costs are no-ops.
  SimulateCost(0, CostModel::kBusySpin);
  SimulateCost(-5, CostModel::kSleep);
}

TEST(EngineOptions, RecordLogOffYieldsEmptyLog) {
  WorkingMemory wm;
  auto rules = CostlyRules(&wm, 5, 0);
  EngineOptions options;
  options.record_log = false;
  SingleThreadEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 5u);
  EXPECT_TRUE(result.log.empty());
}

TEST(EngineOptions, ParallelRandomStrategyIsConsistent) {
  WorkingMemory wm;
  auto rules = CostlyRules(&wm, 30, 0);
  auto pristine = wm.Clone();
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.base.strategy = ConflictResolution::kRandom;
  options.base.seed = 7;
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 30u);
  EXPECT_TRUE(ValidateReplay(pristine.get(), rules, result.log).ok());
}

TEST(EngineOptions, EscalationUnderDetectionEndToEnd) {
  // Escalated (relation-level) Rc locks under contention: every firing
  // reads both tuples and writes one, so the escalated Rc locks and the
  // writers' Wa locks contend on one relation, and waits-for detection
  // resolves any cycle.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation pairt (slot int) (v int))
(rule sum2
  (pairt ^slot 1 ^v { < 10 } ^v <a>)
  (pairt ^slot 2 ^v <b>)
  -->
  (modify 1 ^v (+ <a> 1)))
)",
                           &wm)
                   .ValueOrDie();
  ASSERT_TRUE(wm.Insert("pairt", {Value::Int(1), Value::Int(0)}).ok());
  ASSERT_TRUE(wm.Insert("pairt", {Value::Int(2), Value::Int(0)}).ok());
  auto pristine = wm.Clone();
  ParallelEngineOptions options;
  options.num_workers = 4;
  options.rc_escalation_threshold = 1;  // both Rc locks escalate
  ParallelEngine engine(&wm, rules, options);
  auto result = engine.Run().ValueOrDie();
  EXPECT_EQ(result.stats.firings, 10u);
  EXPECT_TRUE(ValidateReplay(pristine.get(), rules, result.log).ok());
}

TEST(EngineStats, ToStringMentionsEverything) {
  EngineStats stats;
  stats.firings = 3;
  stats.halted = true;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("firings=3"), std::string::npos);
  EXPECT_NE(text.find("halted=1"), std::string::npos);
}

}  // namespace
}  // namespace dbps
