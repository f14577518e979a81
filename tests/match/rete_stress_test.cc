// Deeper Rete shapes: long beta chains, leading negations, stacked
// negations, churn, and cross-checks against the naive oracle on every
// shape.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "lang/compiler.h"
#include "match/matcher.h"
#include "match/rete.h"
#include "util/random.h"

namespace dbps {
namespace {

std::set<std::string> Keys(const Matcher& matcher) {
  std::set<std::string> keys;
  for (const auto& inst : matcher.conflict_set().Snapshot()) {
    keys.insert(inst->key().ToString());
  }
  return keys;
}

void ExpectAgreement(const RuleSetPtr& rules, const WorkingMemory& wm,
                     size_t expected) {
  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());
  EXPECT_EQ(Keys(*rete), Keys(*naive));
  EXPECT_EQ(rete->conflict_set().size(), expected);
}

TEST(ReteStress, TenWayChainJoins) {
  WorkingMemory wm;
  std::string source = "(relation link (pos int) (v int))\n(rule chain\n";
  for (int i = 1; i <= 10; ++i) {
    source += "  (link ^pos " + std::to_string(i) + " ^v <v" +
              std::to_string(i) + ">" +
              (i > 1 ? " ^v { >= <v" + std::to_string(i - 1) + "> })"
                     : ")") +
              "\n";
  }
  source += "  --> (remove 1))\n";
  auto rules_or = CompileProgram(source);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status() << "\n" << source;

  WorkingMemory wm2;
  auto rules = LoadProgram(source, &wm2).ValueOrDie();
  // A strictly increasing chain of 10 links matches exactly once.
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(wm2.Insert("link", {Value::Int(i), Value::Int(i)}).ok());
  }
  ExpectAgreement(rules, wm2, 1u);

  // Breaking the monotonicity at position 5 kills the match.
  WmeId id = 0;
  for (const auto& wme : wm2.Scan(Sym("link"))) {
    if (wme->value(0) == Value::Int(5)) id = wme->id();
  }
  Delta delta;
  delta.Modify(id, {{1, Value::Int(0)}});
  ASSERT_TRUE(wm2.Apply(delta).ok());
  ExpectAgreement(rules, wm2, 0u);
}

TEST(ReteStress, LeadingNegation) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation flag (name symbol))
(relation job (id int))
(rule run-unless-frozen
  -(flag ^name frozen)
  (job ^id <j>)
  -->
  (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ASSERT_TRUE(wm.Insert("job", {Value::Int(1)}).ok());
  ASSERT_TRUE(wm.Insert("job", {Value::Int(2)}).ok());
  ExpectAgreement(rules, wm, 2u);

  ASSERT_TRUE(wm.Insert("flag", {Value::Symbol("frozen")}).ok());
  ExpectAgreement(rules, wm, 0u);
}

TEST(ReteStress, RemoveActionOnRuleWithLeadingNegation) {
  // (remove 2) in source counts positive CEs only -> removes the job.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation flag (name symbol))
(relation job (id int))
(rule gated -(flag ^name stop) (job ^id <j>) --> (remove 1))
(make job ^id 1)
)",
                           &wm)
                   .ValueOrDie();
  // With one positive CE, (remove 1) must target the job.
  auto matcher = CreateMatcher(MatcherKind::kRete);
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  auto inst = matcher->conflict_set().Snapshot()[0];
  EXPECT_EQ(inst->matched().size(), 1u);
  EXPECT_EQ(inst->matched()[0]->relation(), Sym("job"));
}

TEST(ReteStress, StackedNegations) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (id int))
(relation veto-a (goal int))
(relation veto-b (goal int))
(rule clear
  (goal ^id <g>)
  -(veto-a ^goal <g>)
  -(veto-b ^goal <g>)
  -->
  (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  for (int g = 1; g <= 4; ++g) {
    ASSERT_TRUE(wm.Insert("goal", {Value::Int(g)}).ok());
  }
  ASSERT_TRUE(wm.Insert("veto-a", {Value::Int(1)}).ok());
  ASSERT_TRUE(wm.Insert("veto-b", {Value::Int(2)}).ok());
  ASSERT_TRUE(wm.Insert("veto-a", {Value::Int(3)}).ok());
  ASSERT_TRUE(wm.Insert("veto-b", {Value::Int(3)}).ok());
  // Only goal 4 is clear of both vetoes.
  ExpectAgreement(rules, wm, 1u);

  // Removing veto-a(3) still leaves veto-b(3).
  for (const auto& wme : wm.Scan(Sym("veto-a"))) {
    if (wme->value(0) == Value::Int(3)) {
      ASSERT_TRUE(wm.Delete(wme->id()).ok());
    }
  }
  ExpectAgreement(rules, wm, 1u);
  // Removing veto-b(3) clears goal 3.
  for (const auto& wme : wm.Scan(Sym("veto-b"))) {
    if (wme->value(0) == Value::Int(3)) {
      ASSERT_TRUE(wm.Delete(wme->id()).ok());
    }
  }
  ExpectAgreement(rules, wm, 2u);
}

TEST(ReteStress, NegationBetweenJoins) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (k int))
(relation block (k int))
(relation b (k int))
(rule sandwich
  (a ^k <k>)
  -(block ^k <k>)
  (b ^k <k>)
  -->
  (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  for (int k = 1; k <= 3; ++k) {
    ASSERT_TRUE(wm.Insert("a", {Value::Int(k)}).ok());
    ASSERT_TRUE(wm.Insert("b", {Value::Int(k)}).ok());
  }
  ASSERT_TRUE(wm.Insert("block", {Value::Int(2)}).ok());
  ExpectAgreement(rules, wm, 2u);
}

TEST(ReteStress, HighChurnStaysConsistent) {
  // Insert/delete/modify churn over a joining + negating rule set,
  // cross-checked against the oracle every step.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (k int) (v int))
(relation b (k int) (v int))
(relation mute (k int))
(rule pairs (a ^k <k> ^v <va>) (b ^k <k> ^v { >= <va> })
  -(mute ^k <k>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());

  Random rng(321);
  for (int step = 0; step < 300; ++step) {
    Delta delta;
    int kind = static_cast<int>(rng.Uniform(5));
    if (kind <= 1) {
      const char* relation = kind == 0 ? "a" : "b";
      delta.Create(Sym(relation),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(5))),
                    Value::Int(static_cast<int64_t>(rng.Uniform(10)))});
    } else if (kind == 2) {
      delta.Create(Sym("mute"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(5)))});
    } else {
      std::vector<WmePtr> all;
      for (const char* relation : {"a", "b", "mute"}) {
        for (const auto& wme : wm.Scan(Sym(relation))) {
          all.push_back(wme);
        }
      }
      if (all.empty()) continue;
      const WmePtr& victim = all[rng.Uniform(all.size())];
      if (kind == 3 || victim->arity() < 2) {
        delta.Delete(victim->id());
      } else {
        delta.Modify(victim->id(),
                     {{1, Value::Int(static_cast<int64_t>(
                              rng.Uniform(10)))}});
      }
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok());
    rete->ApplyChange(change.ValueOrDie());
    naive->ApplyChange(change.ValueOrDie());
    ASSERT_EQ(Keys(*rete), Keys(*naive)) << "step " << step;
  }
}

TEST(ReteStress, ManyRulesShareStructure) {
  // 40 rules over the same relations; alpha memories must be shared
  // (distinct thresholds → distinct memories, repeated thresholds →
  // shared).
  std::string source = "(relation m (v int))\n";
  for (int r = 0; r < 40; ++r) {
    source += "(rule r" + std::to_string(r) + " (m ^v { > " +
              std::to_string(r % 10) + " }) --> (remove 1))\n";
  }
  WorkingMemory wm;
  auto rules = LoadProgram(source, &wm).ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  auto stats = matcher.GetStats();
  EXPECT_EQ(stats.production_nodes, 40u);
  EXPECT_EQ(stats.alpha_memories, 10u);  // one per distinct threshold

  Delta delta;
  delta.Create(Sym("m"), {Value::Int(5)});
  auto change = wm.Apply(delta);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  // v=5 satisfies thresholds 0..4 -> 5 thresholds x 4 rules each = 20.
  EXPECT_EQ(matcher.conflict_set().size(), 20u);
}

// TSan stress: engine workers Claim/Contains/Snapshot the conflict set
// while the committer propagates batches through Rete — the engine's
// access pattern. Run under -fsanitize=thread to check for races; the
// final agreement holds regardless.
TEST(ReteStress, ConcurrentReadersDuringPropagation) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation hot (id int) (v int))
(relation cold (id int))
(rule pair (hot ^id <i> ^v <v>) (cold ^id <i>) --> (remove 1))
(rule spike (hot ^id <i> ^v { > 7 }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(500 + r);
      ConflictSet& cs = matcher.conflict_set();
      while (!stop.load(std::memory_order_acquire)) {
        InstPtr claimed = cs.Claim(ConflictResolution::kPriority, &rng);
        if (claimed != nullptr) {
          cs.Contains(claimed->key());
          cs.Unclaim(claimed->key());
        }
        (void)cs.Snapshot();
        (void)cs.size();
      }
    });
  }
  Random rng(41);
  for (int batch = 0; batch < 80; ++batch) {
    Delta delta;
    delta.Create(Sym("hot"),
                 {Value::Int(static_cast<int64_t>(rng.Uniform(12))),
                  Value::Int(static_cast<int64_t>(rng.Uniform(10)))});
    if (rng.Uniform(3) == 0) {
      delta.Create(Sym("cold"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(12)))});
    }
    auto change_or = wm.Apply(delta);
    ASSERT_TRUE(change_or.ok());
    matcher.ApplyChanges({std::move(change_or).ValueOrDie()});
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());
  EXPECT_EQ(naive->conflict_set().CanonicalDump(),
            matcher.conflict_set().CanonicalDump());
}

}  // namespace
}  // namespace dbps
