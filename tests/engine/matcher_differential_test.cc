// The matcher differential gate, engine-level.
//
// Part 1 (deterministic): the same program run through ParallelEngine
// with Rete, TREAT and the naive rematcher (one engine worker, same seed)
// must produce BYTE-IDENTICAL journals — same firing order, same seqs,
// same deltas — because the three conflict sets hold the same contents
// after every commit and the selection strategies are deterministic on
// contents (final tie-break on the instantiation key). This covers the
// rules-only family's program and every example program that fires on
// its own (server_inbox waits for clients; the chaos part covers it).
//
// Part 2 (chaos): every chaos/workload family runs with TREAT and with
// the naive rematcher as the engine's matcher. Client threads and fault
// injection make those journals schedule-dependent, so the cross-matcher
// check is the replay validator: it re-derives every firing with Rete and
// requires the identical delta. The offline audit then re-checks the
// journal end to end. (The chaos suites run the same families on Rete;
// a last sweep here runs them on Rete with the adaptive batch limit.)

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dbps.h"
#include "testing/chaos_runner.h"
#include "testing/workloads.h"

namespace dbps {
namespace {

using testing::ChaosOptions;
using testing::ChaosReport;
using testing::ChaosRunner;
using testing::ChaosWorkload;
using testing::MakeLogisticsWm;

constexpr MatcherKind kAllMatchers[] = {MatcherKind::kRete,
                                        MatcherKind::kTreat,
                                        MatcherKind::kNaive};

/// Renders a run's committed log as replayable journal text.
std::string JournalText(const RunResult& result) {
  std::string text;
  for (const FiringRecord& record : result.log) {
    auto line_or = DeltaToJournalLine(record.delta);
    DBPS_CHECK(line_or.ok()) << line_or.status();
    text += std::to_string(record.seq) + " " + line_or.ValueOrDie();
    text += '\n';
  }
  return text;
}

RunResult RunOneWorker(WorkingMemory* wm, const RuleSetPtr& rules,
                       MatcherKind matcher, uint64_t seed) {
  ParallelEngineOptions options;
  options.base.seed = seed;
  options.base.matcher = matcher;
  options.num_workers = 1;  // deterministic firing order
  ParallelEngine engine(wm, rules, options);
  auto result_or = engine.Run();
  DBPS_CHECK(result_or.ok()) << result_or.status();
  return std::move(result_or).ValueOrDie();
}

RunResult RunLogistics(MatcherKind matcher) {
  RuleSetPtr rules;
  auto wm = MakeLogisticsWm(/*boxes=*/12, /*robots=*/4, /*sites=*/4, &rules);
  return RunOneWorker(wm.get(), rules, matcher, /*seed=*/42);
}

TEST(MatcherDifferentialTest, ReteTreatNaiveJournalsAreByteIdentical) {
  const RunResult rete = RunLogistics(MatcherKind::kRete);
  ASSERT_GT(rete.log.size(), 0u);
  for (MatcherKind matcher : {MatcherKind::kTreat, MatcherKind::kNaive}) {
    const RunResult other = RunLogistics(matcher);
    EXPECT_EQ(JournalText(rete), JournalText(other))
        << MatcherKindToString(matcher);
  }
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(DBPS_EXAMPLES_DIR) + "/" + name);
  DBPS_CHECK(in.good()) << "cannot open example " << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ExampleProgramDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleProgramDifferentialTest, JournalsAreByteIdentical) {
  const std::string source = ReadExample(GetParam());
  std::vector<std::string> journals;
  for (MatcherKind matcher : kAllMatchers) {
    WorkingMemory wm;
    auto rules_or = LoadProgram(source, &wm);
    ASSERT_TRUE(rules_or.ok()) << rules_or.status();
    auto pristine = wm.Clone();
    const RunResult run =
        RunOneWorker(&wm, rules_or.ValueOrDie(), matcher, /*seed=*/7);
    ASSERT_TRUE(
        ValidateReplay(pristine.get(), rules_or.ValueOrDie(), run.log).ok())
        << MatcherKindToString(matcher);
    journals.push_back(JournalText(run));
  }
  EXPECT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]) << "rete vs treat";
  EXPECT_EQ(journals[0], journals[2]) << "rete vs naive";
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ExampleProgramDifferentialTest,
    ::testing::Values("counters.dbps", "fibonacci.dbps", "manners.dbps",
                      "monkey_bananas.dbps", "waltz_lite.dbps"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      // monkey_bananas.dbps -> MonkeyBananas
      std::string name;
      bool upper = true;
      for (const char* c = info.param; *c != '.'; ++c) {
        if (*c == '_') {
          upper = true;
          continue;
        }
        name += upper ? static_cast<char>(std::toupper(*c)) : *c;
        upper = false;
      }
      return name;
    });

// Adaptive batch limit as a pass-through ablation: with one worker the
// sequencer never folds, the controller only ever lowers the limit, and
// the journal cannot move.
TEST(MatcherDifferentialTest, AdaptiveBatchLimitKeepsJournalStable) {
  RuleSetPtr rules;
  auto wm = MakeLogisticsWm(12, 4, 4, &rules);
  ParallelEngineOptions options;
  options.base.seed = 42;
  options.num_workers = 1;
  options.adaptive_batch_limit = true;
  ParallelEngine engine(wm.get(), rules, options);
  auto result_or = engine.Run();
  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RunResult serial = RunLogistics(MatcherKind::kRete);
  EXPECT_EQ(JournalText(serial), JournalText(result_or.ValueOrDie()));
  EXPECT_GE(result_or.ValueOrDie().stats.effective_batch_limit, 1u);
}

TEST(MatcherDifferentialTest, TreatInnerMatcherAgreesToo) {
  // A second logistics shape and seed, TREAT against Rete.
  RuleSetPtr rules;
  auto treat_wm = MakeLogisticsWm(10, 3, 3, &rules);
  const RunResult treat =
      RunOneWorker(treat_wm.get(), rules, MatcherKind::kTreat, /*seed=*/7);
  auto rete_wm = MakeLogisticsWm(10, 3, 3, &rules);
  const RunResult rete =
      RunOneWorker(rete_wm.get(), rules, MatcherKind::kRete, /*seed=*/7);
  ASSERT_GT(rete.log.size(), 0u);
  EXPECT_EQ(JournalText(rete), JournalText(treat));
}

std::string FamilyName(const ::testing::TestParamInfo<ChaosWorkload>& info) {
  switch (info.param) {
    case ChaosWorkload::kRulesOnly: return "RulesOnly";
    case ChaosWorkload::kMultiUser: return "MultiUser";
    case ChaosWorkload::kNetwork: return "Network";
    case ChaosWorkload::kCrashRecover: return "CrashRecover";
    case ChaosWorkload::kZipfian: return "Zipfian";
    case ChaosWorkload::kSnapshotScan: return "SnapshotScan";
    case ChaosWorkload::kMixedOltp: return "MixedOltp";
  }
  return "Unknown";
}

// Every chaos/workload family with TREAT and with the naive rematcher as
// the engine's matcher; the trial's Rete replay is the differential. The
// "Chaos" suite name puts this in the chaos tier, where
// DBPS_CHAOS_TRIALS and DBPS_CHAOS_SEED scale it.
class MatcherDifferentialChaosTest
    : public ::testing::TestWithParam<ChaosWorkload> {};

TEST_P(MatcherDifferentialChaosTest, EveryMatcherSurvivesFamily) {
  const size_t trials = testing::ChaosTrialMultiplier();
  for (MatcherKind matcher : {MatcherKind::kTreat, MatcherKind::kNaive}) {
    for (size_t t = 0; t < trials; ++t) {
      ChaosOptions options;
      options.workload = GetParam();
      options.matcher = matcher;
      options.seed = testing::ChaosSeedBase() + 7700 + t * 13;
      options.fail_rate = 0.03;
      options.client_sessions = 2;
      options.txns_per_session = 6;
      if (GetParam() == ChaosWorkload::kCrashRecover) {
        options.journal_path = ::testing::TempDir() + "matcher_diff_crash_" +
                               MatcherKindToString(matcher) + "_" +
                               std::to_string(t) + ".wal";
        options.group_commit = true;
        options.checkpoint_every = 8;
      }
      ChaosReport report = ChaosRunner::RunTrial(options);
      EXPECT_TRUE(report.verdict.ok())
          << MatcherKindToString(matcher) << " seed " << options.seed << ": "
          << report.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MatcherDifferentialChaosTest,
    ::testing::Values(ChaosWorkload::kRulesOnly, ChaosWorkload::kMultiUser,
                      ChaosWorkload::kNetwork, ChaosWorkload::kCrashRecover,
                      ChaosWorkload::kZipfian, ChaosWorkload::kSnapshotScan,
                      ChaosWorkload::kMixedOltp),
    FamilyName);

// Every family again on Rete with the self-tuning commit batch limit
// armed, the one part of the skew-adaptation stack that remains (value-
// hash splitting, rule re-homing and match pipelining are gone). Fault
// injection, client sessions, crash recovery and the offline audit run
// exactly as in the sweep above.
class SkewAdaptiveChaosTest : public ::testing::TestWithParam<ChaosWorkload> {
};

TEST_P(SkewAdaptiveChaosTest, ArmedAdaptationSurvivesFamily) {
  const size_t trials = testing::ChaosTrialMultiplier();
  for (size_t t = 0; t < trials; ++t) {
    ChaosOptions options;
    options.workload = GetParam();
    options.seed = testing::ChaosSeedBase() + 8850 + t * 17;
    options.fail_rate = 0.03;
    options.client_sessions = 2;
    options.txns_per_session = 6;
    options.adaptive_batch_limit = true;
    if (GetParam() == ChaosWorkload::kCrashRecover) {
      options.journal_path = ::testing::TempDir() + "skew_adapt_crash_" +
                             std::to_string(t) + ".wal";
      options.group_commit = true;
      options.checkpoint_every = 8;
    }
    ChaosReport report = ChaosRunner::RunTrial(options);
    EXPECT_TRUE(report.verdict.ok())
        << "seed " << options.seed << ": " << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SkewAdaptiveChaosTest,
    ::testing::Values(ChaosWorkload::kRulesOnly, ChaosWorkload::kMultiUser,
                      ChaosWorkload::kNetwork, ChaosWorkload::kCrashRecover,
                      ChaosWorkload::kZipfian, ChaosWorkload::kSnapshotScan,
                      ChaosWorkload::kMixedOltp),
    FamilyName);

// Audit-evidence sampling end to end: with --audit-every semantics armed
// (evidence on every 3rd line only) the run's journal still passes the
// offline auditor — unaudited lines are tracked as order-only history and
// the victim ledger tolerates the sampled gaps.
TEST(MatcherDifferentialChaosTest, SampledAuditEvidenceStaysClean) {
  ChaosOptions options;
  options.workload = ChaosWorkload::kMultiUser;
  options.seed = testing::ChaosSeedBase() + 8801;
  options.fail_rate = 0.03;
  options.audit_every = 3;
  ChaosReport report = ChaosRunner::RunTrial(options);
  EXPECT_TRUE(report.verdict.ok()) << report.ToString();
  EXPECT_LT(report.audit.audited_records, report.audit.records)
      << "sampling did not reduce audited records";
}

// The adaptive group-commit flush deadline under delayed fsyncs: the
// network chaos profile stalls the server.journal.fsync_delay site, so
// with a short deadline the flusher must release stalled groups early.
TEST(MatcherDifferentialChaosTest, FsyncDelayDeadlineFlushChaosTrial) {
  ChaosOptions options;
  options.workload = ChaosWorkload::kNetwork;
  options.seed = testing::ChaosSeedBase() + 9902;
  options.fail_rate = 0.05;
  options.flush_deadline = std::chrono::milliseconds(1);
  ChaosReport report = ChaosRunner::RunTrial(options);
  EXPECT_TRUE(report.verdict.ok()) << report.ToString();
  // The deadline flusher is allowed to be idle on a fast run, but the
  // 1ms deadline under injected delays virtually always trips; either
  // way the journal stayed consistent, which is the property.
}

}  // namespace
}  // namespace dbps
