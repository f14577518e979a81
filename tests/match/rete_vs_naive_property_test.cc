// Property test: on random programs and random WM mutation sequences, the
// Rete network's conflict set must equal the naive rematcher's exactly.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lang/compiler.h"
#include "match/matcher.h"
#include "testing/workloads.h"
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

class ReteVsNaive : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReteVsNaive, ConflictSetsAgreeUnderRandomMutations) {
  const uint64_t seed = GetParam();
  testing::RandomProgramBuilder builder(seed);
  std::string source = builder.Build();

  WorkingMemory wm;
  auto rules_or = LoadProgram(source, &wm);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status() << "\nprogram:\n"
                             << source;
  RuleSetPtr rules = rules_or.ValueOrDie();

  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  auto treat = CreateMatcher(MatcherKind::kTreat);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());
  ASSERT_TRUE(treat->Initialize(rules, wm).ok());
  ASSERT_EQ(Keys(*rete), Keys(*naive)) << "divergence at init\n" << source;
  ASSERT_EQ(Keys(*treat), Keys(*naive))
      << "treat divergence at init\n" << source;

  // Random mutation stream: inserts, deletes, modifies across relations.
  Random rng(seed ^ 0xabcdef);
  for (int step = 0; step < 60; ++step) {
    Delta delta;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0) {
      static const char* kKinds[] = {"red", "green", "blue"};
      delta.Create(Sym("token"),
                   {Value::Symbol(kKinds[rng.Uniform(3)]),
                    Value::Int(static_cast<int64_t>(rng.Uniform(6))),
                    Value::Int(0)});
    } else if (kind == 1) {
      delta.Create(Sym("mark"),
                   {Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
    } else {
      // Delete or modify a random live WME.
      std::vector<WmePtr> all;
      for (const char* rel : {"token", "slot", "mark"}) {
        for (const auto& wme : wm.Scan(Sym(rel))) all.push_back(wme);
      }
      if (all.empty()) continue;
      const WmePtr& victim = all[rng.Uniform(all.size())];
      if (kind == 2) {
        delta.Delete(victim->id());
      } else {
        // Modify the last (int) field.
        size_t field = victim->arity() - 1;
        delta.Modify(victim->id(),
                     {{field, Value::Int(static_cast<int64_t>(
                                  rng.Uniform(6)))}});
      }
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    rete->ApplyChange(change.ValueOrDie());
    naive->ApplyChange(change.ValueOrDie());
    treat->ApplyChange(change.ValueOrDie());
    ASSERT_EQ(Keys(*rete), Keys(*naive))
        << "divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
    ASSERT_EQ(Keys(*treat), Keys(*naive))
        << "treat divergence at step " << step << " (seed " << seed
        << ") after " << delta.ToString() << "\nprogram:\n"
        << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReteVsNaive,
                         ::testing::Range<uint64_t>(1, 21));

// Hashed joins and negations on numbers beyond double precision. == is
// not transitive there (Int(2^53+1) == Float(2^53) == Int(2^53), yet the
// two ints differ), so the Rete buckets key on a coarser equivalence and
// re-check members with ==. Every step must agree with the naive oracle.
TEST(ReteVsNaive, CrossTypeNumericJoinsAgree) {
  WorkingMemory wm;
  auto rules_or = LoadProgram(R"(
(relation a (v any))
(relation b (v any))
(relation veto (v any))
(rule pair (a ^v <x>) (b ^v <x>) --> (remove 1))
(rule lonely (a ^v <x>) -(veto ^v <x>) --> (remove 1))
)",
                              &wm);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status();
  RuleSetPtr rules = rules_or.ValueOrDie();
  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(rete->Initialize(rules, wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, wm).ok());

  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> values = {
      Value::Int(two53), Value::Int(two53 + 1), Value::Int(two53 + 2),
      Value::Float(static_cast<double>(two53)), Value::Int(0),
      Value::Float(-0.0), Value::Int(3), Value::Float(3.0)};
  Random rng(53);
  for (int step = 0; step < 80; ++step) {
    Delta delta;
    const char* relation = step % 3 == 0   ? "a"
                           : step % 3 == 1 ? "b"
                                           : "veto";
    std::vector<WmePtr> live = wm.Scan(Sym(relation));
    if (!live.empty() && rng.Uniform(3) == 0) {
      const WmePtr& victim = live[rng.Uniform(live.size())];
      if (rng.Uniform(2) == 0) {
        delta.Delete(victim->id());
      } else {
        delta.Modify(victim->id(),
                     {{0, values[rng.Uniform(values.size())]}});
      }
    } else {
      delta.Create(Sym(relation), {values[rng.Uniform(values.size())]});
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    rete->ApplyChange(change.ValueOrDie());
    naive->ApplyChange(change.ValueOrDie());
    ASSERT_EQ(Keys(*rete), Keys(*naive))
        << "divergence at step " << step << " after " << delta.ToString();
  }
  EXPECT_GT(rete->conflict_set().size(), 0u);
}

// Randomized commit batches (creates, deletes, modifies) over two
// workloads: four relations joined across each other, and one hot
// relation self-joined and negated on its key (the shape hashed memories
// exist for). Rete and TREAT must dump byte-identically to the naive
// oracle after every batch.
struct BatchWorkload {
  const char* name;
  const char* program;
};

class BatchedWorkloadTest : public ::testing::TestWithParam<BatchWorkload> {
};

TEST_P(BatchedWorkloadTest, ReteAndTreatMatchNaiveAfterEveryBatch) {
  WorkingMemory wm;
  auto rules_or = LoadProgram(GetParam().program, &wm);
  ASSERT_TRUE(rules_or.ok()) << rules_or.status();
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (MatcherKind kind :
       {MatcherKind::kNaive, MatcherKind::kRete, MatcherKind::kTreat}) {
    matchers.push_back(CreateMatcher(kind));
    ASSERT_TRUE(matchers.back()->Initialize(rules_or.ValueOrDie(), wm).ok());
  }
  const std::vector<SymbolId> relations = wm.catalog().relation_names();
  Random rng(1234);
  for (int batch = 0; batch < 80; ++batch) {
    Delta delta;
    std::set<WmeId> touched;  // a delta names each WME at most once
    for (size_t op = 0, ops = 1 + rng.Uniform(5); op < ops; ++op) {
      const SymbolId relation = relations[rng.Uniform(relations.size())];
      const std::vector<WmePtr> rows = wm.Scan(relation);
      const size_t arity =
          wm.catalog().GetRelation(relation).ValueOrDie()->arity();
      const auto random_value = [&] {
        return Value::Int(static_cast<int64_t>(rng.Uniform(10)));
      };
      if (rows.empty() || rng.Uniform(5) < 3) {
        std::vector<Value> values;
        for (size_t f = 0; f < arity; ++f) values.push_back(random_value());
        delta.Create(relation, std::move(values));
        continue;
      }
      const WmePtr& row = rows[rng.Uniform(rows.size())];
      if (!touched.insert(row->id()).second) continue;
      if (rng.Uniform(2) == 0) {
        delta.Delete(row->id());
      } else {
        delta.Modify(row->id(), {{arity - 1, random_value()}});
      }
    }
    auto change = wm.Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    const std::vector<WmChange> changes{change.ValueOrDie()};
    for (auto& matcher : matchers) matcher->ApplyChanges(changes);
    for (size_t i = 1; i < matchers.size(); ++i) {
      ASSERT_EQ(matchers[0]->conflict_set().CanonicalDump(),
                matchers[i]->conflict_set().CanonicalDump())
          << "matcher " << i << " diverged at batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BatchedWorkloadTest,
    ::testing::Values(BatchWorkload{"MultiRelation", R"(
(relation order (id int) (qty int))
(relation stock (id int) (qty int))
(relation ship (id int))
(relation alert (id int))
(rule fill (order ^id <i> ^qty <q>) (stock ^id <i> ^qty { > 0 })
  --> (remove 1))
(rule low (stock ^id <i> ^qty { < 2 }) --> (remove 1))
(rule shipped (ship ^id <i>) (order ^id <i> ^qty <q>) --> (remove 1))
(rule watch (alert ^id <i>) --> (remove 1))
)"},
                      BatchWorkload{"HotSelfJoin", R"(
(relation hot (k int) (v int))
(relation mark (k int))
(rule pairup (hot ^k <x> ^v <a>) (hot ^k <x> ^v { > 3 }) --> (remove 1))
(rule unmarked (hot ^k <x> ^v { > 8 }) -(mark ^k <x>) --> (remove 1))
)"}),
    [](const ::testing::TestParamInfo<BatchWorkload>& info) {
      return std::string(info.param.name);
    });

TEST(ReteVsNaive, LogisticsWorkloadAgrees) {
  RuleSetPtr rules;
  auto wm = testing::MakeLogisticsWm(8, 4, 5, &rules);
  auto rete = CreateMatcher(MatcherKind::kRete);
  auto naive = CreateMatcher(MatcherKind::kNaive);
  ASSERT_TRUE(rete->Initialize(rules, *wm).ok());
  ASSERT_TRUE(naive->Initialize(rules, *wm).ok());
  EXPECT_EQ(Keys(*rete), Keys(*naive));
  EXPECT_GT(rete->conflict_set().size(), 0u);
}

}  // namespace
}  // namespace dbps
