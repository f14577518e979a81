// Behavioural tests run against BOTH matcher implementations through the
// common Matcher interface (value-parameterized), so the naive oracle and
// the Rete network are held to the identical contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "lang/compiler.h"
#include "match/matcher.h"
#include "match/naive_matcher.h"
#include "match/rete.h"

namespace dbps {
namespace {

class MatcherTest : public ::testing::TestWithParam<MatcherKind> {
 protected:
  std::unique_ptr<Matcher> NewMatcher() { return CreateMatcher(GetParam()); }

  /// Applies one delta to the WM and feeds the change to the matcher.
  void Apply(WorkingMemory* wm, Matcher* matcher, const Delta& delta) {
    auto change = wm->Apply(delta);
    ASSERT_TRUE(change.ok()) << change.status();
    matcher->ApplyChange(change.ValueOrDie());
  }

  std::multiset<std::string> RuleNames(const Matcher& matcher) {
    std::multiset<std::string> names;
    for (const auto& inst : matcher.conflict_set().Snapshot()) {
      names.insert(inst->rule()->name());
    }
    return names;
  }
};

TEST_P(MatcherTest, InitialContentsAreMatched) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule big (item ^v { > 10 }) --> (remove 1))
(make item ^v 5)
(make item ^v 15)
(make item ^v 20)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 2u);
}

TEST_P(MatcherTest, IncrementalAddAndRemove) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule any (item ^v <v>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  Delta add;
  add.Create(Sym("item"), {Value::Int(1)});
  add.Create(Sym("item"), {Value::Int(2)});
  Apply(&wm, matcher.get(), add);
  EXPECT_EQ(matcher->conflict_set().size(), 2u);

  WmeId first = wm.Scan(Sym("item"))[0]->id();
  Delta remove;
  remove.Delete(first);
  Apply(&wm, matcher.get(), remove);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, JoinOnSharedVariable) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x symbol))
(relation b (x symbol))
(rule pair (a ^x <k>) (b ^x <k>) --> (remove 1))
(make a ^x p)
(make a ^x q)
(make b ^x q)
(make b ^x r)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // Only (a q, b q) joins.
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  auto inst = matcher->conflict_set().Snapshot()[0];
  EXPECT_EQ(inst->matched()[0]->value(0), Value::Symbol("q"));
  EXPECT_EQ(inst->matched()[1]->value(0), Value::Symbol("q"));
}

TEST_P(MatcherTest, CrossProductCounts) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x int))
(relation b (x int))
(rule all (a ^x <i>) (b ^x <j>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  Delta delta;
  for (int i = 0; i < 3; ++i) delta.Create(Sym("a"), {Value::Int(i)});
  for (int j = 0; j < 4; ++j) delta.Create(Sym("b"), {Value::Int(j)});
  Apply(&wm, matcher.get(), delta);
  EXPECT_EQ(matcher->conflict_set().size(), 12u);
}

TEST_P(MatcherTest, SameRelationTwiceInOneRule) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation n (v int))
(rule ordered (n ^v <a>) (n ^v { > <a> }) --> (remove 1))
(make n ^v 1)
(make n ^v 2)
(make n ^v 3)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // Ordered pairs: (1,2) (1,3) (2,3).
  EXPECT_EQ(matcher->conflict_set().size(), 3u);
}

TEST_P(MatcherTest, IntraWmeTest) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation edge (from symbol) (to symbol))
(rule self-loop (edge ^from <x> ^to <x>) --> (remove 1))
(make edge ^from a ^to b)
(make edge ^from c ^to c)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_EQ(matcher->conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("c"));
}

TEST_P(MatcherTest, NegationBlocksAndUnblocks) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 1u);

  // Adding a matching lock deactivates the instantiation...
  Delta block;
  block.Create(Sym("lock"), {Value::Symbol("alpha")});
  Apply(&wm, matcher.get(), block);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  // ...an unrelated lock does not...
  Delta unrelated;
  unrelated.Create(Sym("lock"), {Value::Symbol("beta")});
  Apply(&wm, matcher.get(), unrelated);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  // ...and removing the blocker reactivates it.
  WmeId blocker = 0;
  for (const auto& wme : wm.Scan(Sym("lock"))) {
    if (wme->value(0) == Value::Symbol("alpha")) blocker = wme->id();
  }
  Delta unblock;
  unblock.Delete(blocker);
  Apply(&wm, matcher.get(), unblock);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, NegationPresentFromTheStart) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
(make goal ^name beta)
(make lock ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_EQ(matcher->conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("beta"));
}

TEST_P(MatcherTest, DoublyBlockedNeedsBothRemoved) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
(make lock ^name alpha)
(make lock ^name alpha)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  auto locks = wm.Scan(Sym("lock"));
  Delta remove_one;
  remove_one.Delete(locks[0]->id());
  Apply(&wm, matcher.get(), remove_one);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);  // still one blocker left

  Delta remove_two;
  remove_two.Delete(locks[1]->id());
  Apply(&wm, matcher.get(), remove_two);
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

TEST_P(MatcherTest, ModifyRetractsOldVersionAndAssertsNew) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule big (item ^v { > 10 }) --> (remove 1))
(make item ^v 5)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  EXPECT_EQ(matcher->conflict_set().size(), 0u);

  WmeId id = wm.Scan(Sym("item"))[0]->id();
  Delta up;
  up.Modify(id, {{0, Value::Int(20)}});
  Apply(&wm, matcher.get(), up);
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  TimeTag tag_after_up =
      matcher->conflict_set().Snapshot()[0]->matched()[0]->tag();

  // Modifying again (still >10) yields a *new* instantiation key.
  Delta up2;
  up2.Modify(id, {{0, Value::Int(30)}});
  Apply(&wm, matcher.get(), up2);
  ASSERT_EQ(matcher->conflict_set().size(), 1u);
  EXPECT_GT(matcher->conflict_set().Snapshot()[0]->matched()[0]->tag(),
            tag_after_up);

  Delta down;
  down.Modify(id, {{0, Value::Int(1)}});
  Apply(&wm, matcher.get(), down);
  EXPECT_EQ(matcher->conflict_set().size(), 0u);
}

TEST_P(MatcherTest, MultipleRulesShareWorkingMemory) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule small (item ^v { <= 5 }) --> (remove 1))
(rule big   (item ^v { > 5 })  --> (remove 1))
(rule all   (item ^v <v>)      --> (remove 1))
(make item ^v 3)
(make item ^v 8)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  auto names = RuleNames(*matcher);
  EXPECT_EQ(names.count("small"), 1u);
  EXPECT_EQ(names.count("big"), 1u);
  EXPECT_EQ(names.count("all"), 2u);
}

TEST_P(MatcherTest, ThreeWayJoin) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (k symbol) (v int))
(relation b (k symbol) (v int))
(relation c (k symbol) (v int))
(rule chain
  (a ^k <k> ^v <x>)
  (b ^k <k> ^v { > <x> })
  (c ^k <k> ^v { > <x> })
  -->
  (remove 1))
(make a ^k key ^v 1)
(make b ^k key ^v 2)
(make b ^k key ^v 0)
(make c ^k key ^v 5)
(make c ^k other ^v 9)
)",
                           &wm)
                   .ValueOrDie();
  auto matcher = NewMatcher();
  ASSERT_TRUE(matcher->Initialize(rules, wm).ok());
  // (a key 1) x (b key 2) x (c key 5) only.
  EXPECT_EQ(matcher->conflict_set().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherTest,
                         ::testing::Values(MatcherKind::kRete,
                                           MatcherKind::kNaive,
                                           MatcherKind::kTreat),
                         [](const auto& info) {
                           return std::string(
                               MatcherKindToString(info.param));
                         });

// --- Rete-specific structural tests ------------------------------------

TEST(Rete, SharesAlphaMemories) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule r1 (item ^v { > 10 }) --> (remove 1))
(rule r2 (item ^v { > 10 }) (item ^v { > 10 }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  auto stats = matcher.GetStats();
  // One shared alpha memory for the identical CE across both rules.
  EXPECT_EQ(stats.alpha_memories, 1u);
  EXPECT_EQ(stats.production_nodes, 2u);
  EXPECT_EQ(stats.join_nodes, 3u);
}

TEST(Rete, SharedAlphaMemoryNoDuplicateMatches) {
  // The classic duplicate-match hazard: one WME feeding both CEs of the
  // same rule through one shared alpha memory.
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule pair (item ^v <a>) (item ^v <b>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  Delta delta;
  delta.Create(Sym("item"), {Value::Int(1)});
  auto change = wm.Apply(delta);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  // Exactly one match: (w1, w1).
  EXPECT_EQ(matcher.conflict_set().size(), 1u);

  Delta second;
  second.Create(Sym("item"), {Value::Int(2)});
  change = wm.Apply(second);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  // (w1,w1) (w1,w2) (w2,w1) (w2,w2).
  EXPECT_EQ(matcher.conflict_set().size(), 4u);
}

TEST(Rete, TokensAreReclaimedOnRemoval) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation item (v int))
(rule pair (item ^v <a>) (item ^v <b>) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  size_t base_tokens = matcher.GetStats().tokens;

  Delta add;
  for (int i = 0; i < 5; ++i) add.Create(Sym("item"), {Value::Int(i)});
  auto change = wm.Apply(add);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  EXPECT_EQ(matcher.conflict_set().size(), 25u);
  EXPECT_GT(matcher.GetStats().tokens, base_tokens);

  Delta remove;
  for (const auto& wme : wm.Scan(Sym("item"))) remove.Delete(wme->id());
  change = wm.Apply(remove);
  ASSERT_TRUE(change.ok());
  matcher.ApplyChange(change.ValueOrDie());
  EXPECT_EQ(matcher.conflict_set().size(), 0u);
  EXPECT_EQ(matcher.GetStats().tokens, base_tokens);
  EXPECT_EQ(matcher.GetStats().wmes, 0u);
}

// --- Hashed memories ------------------------------------------------------
//
// Each case drives a ReteMatcher and the naive oracle through the same
// changes and requires identical conflict sets after every step; the
// join-candidate counter shows which path (bucket or scan) a node took.

class ReteIndexTest : public ::testing::Test {
 protected:
  void Load(const char* program) {
    auto rules_or = LoadProgram(program, &wm_);
    ASSERT_TRUE(rules_or.ok()) << rules_or.status();
    rules_ = rules_or.ValueOrDie();
    ASSERT_TRUE(rete_.Initialize(rules_, wm_).ok());
    ASSERT_TRUE(naive_.Initialize(rules_, wm_).ok());
  }

  /// Applies `delta` to both matchers; returns the join candidates Rete
  /// examined for it.
  size_t Apply(const Delta& delta) {
    const size_t before = rete_.GetStats().join_candidates;
    auto change = wm_.Apply(delta);
    EXPECT_TRUE(change.ok()) << change.status();
    rete_.ApplyChange(change.ValueOrDie());
    naive_.ApplyChange(change.ValueOrDie());
    EXPECT_EQ(rete_.conflict_set().CanonicalDump(),
              naive_.conflict_set().CanonicalDump())
        << "after " << delta.ToString();
    return rete_.GetStats().join_candidates - before;
  }

  WmeId Insert(const char* relation, std::vector<Value> values) {
    Delta delta;
    delta.Create(Sym(relation), std::move(values));
    Apply(delta);
    return wm_.next_id() - 1;
  }

  void Modify(WmeId id, size_t field, Value value) {
    Delta delta;
    delta.Modify(id, {{field, std::move(value)}});
    Apply(delta);
  }

  /// Instantiations currently active in Rete.
  size_t Active() const { return rete_.conflict_set().size(); }

  WorkingMemory wm_;
  RuleSetPtr rules_;
  ReteMatcher rete_;
  NaiveMatcher naive_;
};

// The match_skew shape: one relation self-joined on its key. An add visits
// its key's bucket on both join inputs, not the whole memory.
TEST_F(ReteIndexTest, SelfJoinVisitsOneBucket) {
  Load(R"(
(relation hot (k int) (v int))
(rule pair (hot ^k <x> ^v <a>) (hot ^k <x> ^v <b>) --> (remove 1))
)");
  Delta preload;
  for (int i = 0; i < 200; ++i) {
    preload.Create(Sym("hot"), {Value::Int(i), Value::Int(i)});
  }
  Apply(preload);
  EXPECT_EQ(Active(), 200u);  // each WME pairs with itself
  Delta duplicate;
  duplicate.Create(Sym("hot"), {Value::Int(7), Value::Int(-1)});
  // First join (no test): 1. Keyed join: right activation sees the one
  // earlier key-7 token, left activation the two key-7 WMEs.
  EXPECT_EQ(Apply(duplicate), 4u);
  EXPECT_EQ(Active(), 203u);  // + (new,new), (old,new), (new,old)
}

// A negated CE keyed on the join variable, blocked and unblocked by
// modifies of the blocking WME.
TEST_F(ReteIndexTest, NegationBlockedAndUnblockedByModifies) {
  Load(R"(
(relation goal (name symbol))
(relation lock (name symbol))
(rule go (goal ^name <g>) -(lock ^name <g>) --> (remove 1))
(make goal ^name alpha)
(make goal ^name beta)
)");
  EXPECT_EQ(Active(), 2u);
  const WmeId lock = Insert("lock", {Value::Symbol("gamma")});
  EXPECT_EQ(Active(), 2u);
  Modify(lock, 0, Value::Symbol("alpha"));  // blocks alpha
  ASSERT_EQ(Active(), 1u);
  EXPECT_EQ(rete_.conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("beta"));
  Modify(lock, 0, Value::Symbol("beta"));  // unblocks alpha, blocks beta
  ASSERT_EQ(Active(), 1u);
  EXPECT_EQ(rete_.conflict_set().Snapshot()[0]->matched()[0]->value(0),
            Value::Symbol("alpha"));
  Delta unlock;
  unlock.Delete(lock);
  Apply(unlock);
  EXPECT_EQ(Active(), 2u);
  // A modify of the goal itself re-keys its negative-node token.
  WmeId alpha = 0;
  for (const WmePtr& wme : wm_.Scan(Sym("goal"))) {
    if (wme->value(0) == Value::Symbol("alpha")) alpha = wme->id();
  }
  Insert("lock", {Value::Symbol("delta")});
  Modify(alpha, 0, Value::Symbol("delta"));
  EXPECT_EQ(Active(), 1u);
}

// Modifies move a WME between buckets on both sides of a keyed join, and
// the tokens built on old versions are reclaimed.
TEST_F(ReteIndexTest, ModifyMovesWmeBetweenBuckets) {
  Load(R"(
(relation order (id number))
(relation stock (id number))
(rule fill (order ^id <i>) (stock ^id <i>) --> (remove 1))
)");
  const size_t base_tokens = rete_.GetStats().tokens;
  const WmeId order = Insert("order", {Value::Int(1)});
  const WmeId stock = Insert("stock", {Value::Int(2)});
  EXPECT_EQ(Active(), 0u);
  Modify(stock, 0, Value::Int(1));  // stock joins order's bucket
  EXPECT_EQ(Active(), 1u);
  Modify(order, 0, Value::Float(2.0));  // order leaves for bucket 2
  EXPECT_EQ(Active(), 0u);
  Modify(stock, 0, Value::Int(2));  // 2 == 2.0: one bucket
  EXPECT_EQ(Active(), 1u);
  Delta clear;
  clear.Delete(order);
  clear.Delete(stock);
  Apply(clear);
  EXPECT_EQ(Active(), 0u);
  EXPECT_EQ(rete_.GetStats().tokens, base_tokens);
  EXPECT_EQ(rete_.GetStats().wmes, 0u);
}

// A join whose only test is <> has no equality to hash on: it scans, and
// an add pays for the whole memory.
TEST_F(ReteIndexTest, InequalityOnlyJoinScans) {
  Load(R"(
(relation item (v int))
(rule differ (item ^v <a>) (item ^v { <> <a> }) --> (remove 1))
)");
  Delta preload;
  for (int i = 0; i < 50; ++i) preload.Create(Sym("item"), {Value::Int(i)});
  Apply(preload);
  EXPECT_EQ(Active(), 50u * 49u);
  Delta one;
  one.Create(Sym("item"), {Value::Int(1000)});
  // Right activation scans 50 left tokens, then the new token scans all
  // 51 items, plus the first join's single dummy-token candidate.
  EXPECT_EQ(Apply(one), 50u + 51u + 1u);
  EXPECT_EQ(Active(), 51u * 50u);
}

TEST(Rete, ToDotRendersNetwork) {
  WorkingMemory wm;
  auto rules = LoadProgram(R"(
(relation a (x int))
(rule r (a ^x <x>) -(a ^x { > <x> }) --> (remove 1))
)",
                           &wm)
                   .ValueOrDie();
  ReteMatcher matcher;
  ASSERT_TRUE(matcher.Initialize(rules, wm).ok());
  std::string dot = matcher.ToDot();
  EXPECT_NE(dot.find("digraph rete"), std::string::npos);
  EXPECT_NE(dot.find("neg"), std::string::npos);
  EXPECT_NE(dot.find("prod"), std::string::npos);
}

}  // namespace
}  // namespace dbps
