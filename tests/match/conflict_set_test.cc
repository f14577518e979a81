#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "match/conflict_set.h"
#include "wm/working_memory.h"

namespace dbps {
namespace {

RulePtr MakeRule(const std::string& name, int priority = 0,
                 size_t num_tests = 0) {
  Condition cond;
  cond.relation = Sym("thing");
  for (size_t i = 0; i < num_tests; ++i) {
    cond.constant_tests.push_back(
        ConstantTest{0, TestPredicate::kGe, Value::Int(0)});
  }
  auto rule = std::make_shared<Rule>(
      name, std::vector<Condition>{cond},
      std::vector<Action>{RemoveAction{0}});
  rule->set_priority(priority);
  return rule;
}

WmePtr MakeWme(WmeId id, TimeTag tag) {
  return std::make_shared<const Wme>(id, tag, Sym("thing"),
                                     std::vector<Value>{Value::Int(0)});
}

InstPtr MakeInst(const RulePtr& rule, WmeId id, TimeTag tag) {
  return std::make_shared<Instantiation>(
      rule, std::vector<WmePtr>{MakeWme(id, tag)});
}

/// Does `a` dominate `b` under `strategy`?
bool Dominates(ConflictResolution strategy, const InstPtr& a,
               const InstPtr& b) {
  return CompareDominance(strategy, Candidate{&a, 0}, Candidate{&b, 0}) > 0;
}

TEST(Instantiation, KeyIdentity) {
  RulePtr rule = MakeRule("r");
  InstPtr a = MakeInst(rule, 1, 10);
  InstPtr b = MakeInst(rule, 1, 10);
  InstPtr c = MakeInst(rule, 1, 11);  // same WME, newer version
  EXPECT_EQ(a->key(), b->key());
  EXPECT_FALSE(a->key() == c->key());
  EXPECT_EQ(InstKeyHash{}(a->key()), InstKeyHash{}(b->key()));
  EXPECT_EQ(a->RecencyTag(), 10u);
}

TEST(ConflictSet, ActivateDeactivateContains) {
  ConflictSet cs;
  RulePtr rule = MakeRule("r");
  InstPtr inst = MakeInst(rule, 1, 1);
  EXPECT_TRUE(cs.empty());
  cs.Activate(inst);
  EXPECT_TRUE(cs.Contains(inst->key()));
  EXPECT_EQ(cs.size(), 1u);
  cs.Activate(inst);  // idempotent
  EXPECT_EQ(cs.size(), 1u);
  cs.Deactivate(inst->key());
  EXPECT_FALSE(cs.Contains(inst->key()));
  cs.Deactivate(inst->key());  // no-op
}

TEST(ConflictSet, ClaimRemovesFromSelectable) {
  ConflictSet cs;
  RulePtr rule = MakeRule("r");
  cs.Activate(MakeInst(rule, 1, 1));
  cs.Activate(MakeInst(rule, 2, 2));
  Random rng(1);

  InstPtr first = cs.Claim(ConflictResolution::kLex, &rng);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cs.num_claimed(), 1u);
  EXPECT_TRUE(cs.HasSelectable());

  InstPtr second = cs.Claim(ConflictResolution::kLex, &rng);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(first->key() == second->key());
  EXPECT_FALSE(cs.HasSelectable());
  EXPECT_EQ(cs.Claim(ConflictResolution::kLex, &rng), nullptr);
}

TEST(ConflictSet, UnclaimMakesSelectableAgain) {
  ConflictSet cs;
  cs.Activate(MakeInst(MakeRule("r"), 1, 1));
  Random rng(1);
  InstPtr inst = cs.Claim(ConflictResolution::kLex, &rng);
  ASSERT_NE(inst, nullptr);
  cs.Unclaim(inst->key());
  EXPECT_TRUE(cs.HasSelectable());
  EXPECT_NE(cs.Claim(ConflictResolution::kLex, &rng), nullptr);
}

TEST(ConflictSet, MarkFiredRemovesEntirely) {
  ConflictSet cs;
  InstPtr inst = MakeInst(MakeRule("r"), 1, 1);
  cs.Activate(inst);
  Random rng(1);
  cs.Claim(ConflictResolution::kLex, &rng);
  cs.MarkFired(inst->key());
  EXPECT_TRUE(cs.empty());
  EXPECT_EQ(cs.num_claimed(), 0u);
}

TEST(ConflictSet, DeactivateClaimedInstantiation) {
  // A committer invalidating a claimed instantiation removes it from the
  // active set; the claim itself lasts until its claimant ends it.
  ConflictSet cs;
  InstPtr inst = MakeInst(MakeRule("r"), 1, 1);
  cs.Activate(inst);
  Random rng(1);
  cs.Claim(ConflictResolution::kLex, &rng);
  cs.Deactivate(inst->key());
  EXPECT_FALSE(cs.Contains(inst->key()));
  EXPECT_EQ(cs.num_claimed(), 1u);
  cs.Unclaim(inst->key());
  EXPECT_EQ(cs.num_claimed(), 0u);
  EXPECT_TRUE(cs.empty());
  EXPECT_FALSE(cs.HasSelectable());
}

TEST(ConflictSet, SnapshotsDistinguishClaimed) {
  ConflictSet cs;
  cs.Activate(MakeInst(MakeRule("r"), 1, 1));
  cs.Activate(MakeInst(MakeRule("r"), 2, 2));
  Random rng(1);
  cs.Claim(ConflictResolution::kLex, &rng);
  EXPECT_EQ(cs.Snapshot().size(), 2u);
  EXPECT_EQ(cs.SelectableInOrder(ConflictResolution::kLex, nullptr).size(),
            1u);
}

TEST(ConflictSet, SelectableInOrderIsTheClaimOrder) {
  for (ConflictResolution strategy :
       {ConflictResolution::kPriority, ConflictResolution::kLex,
        ConflictResolution::kMea, ConflictResolution::kFifo}) {
    ConflictSet cs;
    for (WmeId id = 1; id <= 6; ++id) {
      if (id % 2 == 1) cs.BeginPropagation();
      cs.Activate(MakeInst(MakeRule("r"), id, 7 - id));
    }
    std::vector<InstPtr> ordered = cs.SelectableInOrder(strategy, nullptr);
    ASSERT_EQ(ordered.size(), 6u);
    Random rng(1);
    for (const InstPtr& expected : ordered) {
      InstPtr claimed = cs.Claim(strategy, &rng);
      ASSERT_NE(claimed, nullptr);
      EXPECT_EQ(claimed->key(), expected->key())
          << ConflictResolutionToString(strategy);
      cs.MarkFired(claimed->key());
    }
  }
}

// --- conflict resolution strategies --------------------------------------

TEST(ConflictResolution, LexPrefersRecency) {
  RulePtr rule = MakeRule("r");
  InstPtr old_inst = MakeInst(rule, 1, 5);
  InstPtr new_inst = MakeInst(rule, 2, 9);
  EXPECT_TRUE(Dominates(ConflictResolution::kLex, new_inst, old_inst));
  EXPECT_FALSE(Dominates(ConflictResolution::kLex, old_inst, new_inst));
}

TEST(ConflictResolution, LexBreaksTiesBySpecificity) {
  RulePtr plain = MakeRule("plain", 0, 0);
  RulePtr fussy = MakeRule("fussy", 0, 3);
  InstPtr a = MakeInst(plain, 1, 5);
  InstPtr b = MakeInst(fussy, 1, 5);
  EXPECT_TRUE(Dominates(ConflictResolution::kLex, b, a));
}

TEST(ConflictResolution, MeaPrefersFirstCeRecency) {
  Condition thing_cond;
  thing_cond.relation = Sym("thing");
  RulePtr rule2 = std::make_shared<Rule>(
      "two", std::vector<Condition>{thing_cond, thing_cond},
      std::vector<Action>{RemoveAction{0}});
  // a: first CE tag 9, second 1.  b: first CE tag 5, second 20.
  auto a = std::make_shared<Instantiation>(
      rule2, std::vector<WmePtr>{MakeWme(1, 9), MakeWme(2, 1)});
  auto b = std::make_shared<Instantiation>(
      rule2, std::vector<WmePtr>{MakeWme(3, 5), MakeWme(4, 20)});
  // MEA: 9 > 5 on the first CE.  LEX: overall recency 20 > 9.
  EXPECT_TRUE(Dominates(ConflictResolution::kMea, a, b));
  EXPECT_TRUE(Dominates(ConflictResolution::kLex, b, a));
}

TEST(ConflictResolution, PriorityWins) {
  ConflictSet cs;
  cs.Activate(MakeInst(MakeRule("low", 1), 1, 100));
  InstPtr high = MakeInst(MakeRule("high", 9), 2, 1);
  cs.Activate(high);
  Random rng(1);
  InstPtr selected = cs.Claim(ConflictResolution::kPriority, &rng);
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->rule()->name(), "high");
}

TEST(ConflictResolution, FifoPrefersOldestActivation) {
  ConflictSet cs;
  InstPtr first = MakeInst(MakeRule("r"), 2, 50);
  cs.Activate(first);
  cs.BeginPropagation();
  cs.Activate(MakeInst(MakeRule("r"), 1, 1));
  Random rng(1);
  InstPtr selected = cs.Claim(ConflictResolution::kFifo, &rng);
  EXPECT_EQ(selected->key(), first->key());
}

TEST(ConflictResolution, FifoBreaksTiesWithinAPropagationByKeyText) {
  // One propagation's activations arrive in whatever order the matcher's
  // containers yield them; the lower key text goes first either way.
  for (bool reversed : {false, true}) {
    ConflictSet cs;
    InstPtr low = MakeInst(MakeRule("r"), 1, 50);
    InstPtr high = MakeInst(MakeRule("r"), 2, 1);
    cs.BeginPropagation();
    cs.Activate(reversed ? high : low);
    cs.Activate(reversed ? low : high);
    Random rng(1);
    InstPtr selected = cs.Claim(ConflictResolution::kFifo, &rng);
    EXPECT_EQ(selected->key(), low->key()) << "reversed=" << reversed;
  }
}

TEST(ConflictResolution, RandomPickIgnoresActivationOrder) {
  // The same candidates activated in two different orders: the same
  // seed picks the same sequence.
  auto run = [](bool reversed) {
    ConflictSet cs;
    RulePtr rule = MakeRule("r");
    for (WmeId i = 1; i <= 10; ++i) {
      const WmeId id = reversed ? 11 - i : i;
      cs.Activate(MakeInst(rule, id, id));
    }
    Random rng(5);
    std::vector<std::string> order;
    while (InstPtr inst = cs.Claim(ConflictResolution::kRandom, &rng)) {
      order.push_back(inst->key().ToString());
    }
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ConflictResolution, RandomIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    ConflictSet cs;
    RulePtr rule = MakeRule("r");
    for (WmeId i = 1; i <= 10; ++i) cs.Activate(MakeInst(rule, i, i));
    Random rng(seed);
    std::vector<std::string> order;
    while (InstPtr inst = cs.Claim(ConflictResolution::kRandom, &rng)) {
      order.push_back(inst->key().ToString());
      cs.MarkFired(inst->key());
    }
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // overwhelmingly likely
}

// --- ordered, interference-aware claims ----------------------------------

TEST(ConflictSet, ClaimSkipsCandidatesAnInFlightClaimDooms) {
  // `bump` reads and writes WME 1; `peek` only reads it; `other` touches
  // WME 2 alone. With bump in flight, peek (reads what bump writes) is
  // skipped even though it dominates `other`.
  Condition thing;
  thing.relation = Sym("thing");
  auto bump = std::make_shared<Rule>("bump", std::vector<Condition>{thing},
                                     std::vector<Action>{RemoveAction{0}});
  bump->set_priority(9);
  auto peek = std::make_shared<Rule>(
      "peek", std::vector<Condition>{thing},
      std::vector<Action>{MakeAction{Sym("thing"), {}}});
  peek->set_priority(5);
  ConflictSet cs;
  cs.Activate(MakeInst(bump, 1, 1));
  cs.Activate(MakeInst(peek, 1, 1));
  cs.Activate(MakeInst(MakeRule("other"), 2, 2));
  Random rng(1);
  InstPtr first = cs.Claim(ConflictResolution::kPriority, &rng);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rule()->name(), "bump");
  InstPtr second = cs.Claim(ConflictResolution::kPriority, &rng);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->rule()->name(), "other");
  // peek is still selectable, just not claimable while bump runs.
  EXPECT_TRUE(cs.HasSelectable());
  EXPECT_EQ(cs.Claim(ConflictResolution::kPriority, &rng), nullptr);
  // bump commits: the commit head deactivates it, which does not end the
  // claim; only its claimant does, once it released its locks.
  cs.Deactivate(first->key());
  EXPECT_EQ(cs.Claim(ConflictResolution::kPriority, &rng), nullptr);
  cs.Unclaim(first->key());
  InstPtr third = cs.Claim(ConflictResolution::kPriority, &rng);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->rule()->name(), "peek");
}

TEST(ConflictSet, ReactivatedWhileClaimedStaysClaimed) {
  // A negated CE blocked and then unblocked re-activates the same key
  // while its first claim is still in flight (the firing committed, the
  // commit head deactivated it, its worker has not yet let go): it must
  // not be claimable twice, and once the claim ends it must be claimable
  // again — the re-activation is a new firing, not the one just done.
  auto make_only = std::make_shared<Rule>(
      "make-only", std::vector<Condition>{[] {
        Condition c;
        c.relation = Sym("thing");
        return c;
      }()},
      std::vector<Action>{MakeAction{Sym("thing"), {}}});
  ConflictSet cs;
  InstPtr inst = MakeInst(make_only, 1, 1);
  cs.Activate(inst);
  Random rng(1);
  ASSERT_NE(cs.Claim(ConflictResolution::kLex, &rng), nullptr);
  cs.Deactivate(inst->key());
  cs.Activate(MakeInst(make_only, 1, 1));
  EXPECT_FALSE(cs.HasSelectable());
  EXPECT_EQ(cs.Claim(ConflictResolution::kLex, &rng), nullptr);
  cs.Unclaim(inst->key());
  EXPECT_NE(cs.Claim(ConflictResolution::kLex, &rng), nullptr);
}

/// Reference model for the property test: the conflict set as a plain
/// list, with SelectDominant over the eligible candidates as the oracle.
class ReferenceConflictSet {
 public:
  void BeginPropagation() { ++propagation_; }
  void Activate(const InstPtr& inst) {
    if (active_.count(inst->key().ToString()) != 0) return;
    active_[inst->key().ToString()] = {inst, propagation_};
  }
  void Deactivate(const InstKey& key) { active_.erase(key.ToString()); }
  void EndClaim(const InstKey& key) {
    auto it = std::find_if(claims_.begin(), claims_.end(),
                           [&](const InstPtr& c) { return c->key() == key; });
    if (it != claims_.end()) claims_.erase(it);
  }
  /// The oracle's pick: dominant among unclaimed candidates that neither
  /// read what a claim writes nor write what a claim reads.
  InstPtr Select(ConflictResolution strategy) const {
    std::vector<Candidate> candidates;
    for (const auto& [text, entry] : active_) {
      if (Claimed(entry.first->key())) continue;
      bool interferes = false;
      for (const InstPtr& claim : claims_) {
        interferes |= Writes(*claim, *entry.first) ||
                      Writes(*entry.first, *claim);
      }
      if (!interferes) {
        candidates.push_back(Candidate{&entry.first, entry.second});
      }
    }
    const InstPtr* pick = SelectDominant(candidates, strategy, nullptr);
    return pick == nullptr ? nullptr : *pick;
  }
  void Claim(const InstPtr& inst) { claims_.push_back(inst); }
  bool Claimed(const InstKey& key) const {
    for (const InstPtr& c : claims_) {
      if (c->key() == key) return true;
    }
    return false;
  }
  size_t size() const { return active_.size(); }
  size_t num_claimed() const { return claims_.size(); }
  const std::vector<InstPtr>& claims() const { return claims_; }
  std::vector<InstPtr> active() const {
    std::vector<InstPtr> out;
    for (const auto& [text, entry] : active_) out.push_back(entry.first);
    return out;
  }

 private:
  /// Does `a` modify/remove a WME that `b` matched?
  static bool Writes(const Instantiation& a, const Instantiation& b) {
    for (const Action& action : a.rule()->actions()) {
      size_t ce;
      if (const auto* m = std::get_if<ModifyAction>(&action)) {
        ce = m->ce;
      } else if (const auto* r = std::get_if<RemoveAction>(&action)) {
        ce = r->ce;
      } else {
        continue;
      }
      for (const WmePtr& read : b.matched()) {
        if (read->id() == a.matched()[ce]->id()) return true;
      }
    }
    return false;
  }

  std::map<std::string, std::pair<InstPtr, uint64_t>> active_;
  std::vector<InstPtr> claims_;
  uint64_t propagation_ = 0;
};

TEST(ConflictSetProperty, OrderedClaimMatchesSelectDominant) {
  // Two-CE rules over a pool of 5 WME ids whose versions carry tags 1..3,
  // so sorted tag lists tie often; rules differ in priority, specificity
  // (some tie on both) and writes (modify CE 1, remove CE 2, make-only).
  Condition base;
  base.relation = Sym("thing");
  Condition fussy = base;
  fussy.constant_tests.push_back(
      ConstantTest{0, TestPredicate::kGe, Value::Int(0)});
  std::vector<RulePtr> rules;
  auto add_rule = [&](const std::string& name, int priority,
                      const Condition& second, Action action) {
    auto rule = std::make_shared<Rule>(
        name, std::vector<Condition>{base, second},
        std::vector<Action>{std::move(action)});
    rule->set_priority(priority);
    rules.push_back(rule);
  };
  add_rule("a", 0, base, ModifyAction{0, {}});
  add_rule("b", 0, base, RemoveAction{1});
  add_rule("c", 0, fussy, MakeAction{Sym("thing"), {}});
  add_rule("d", 1, fussy, ModifyAction{1, {}});
  add_rule("e", 1, base, MakeAction{Sym("thing"), {}});

  const ConflictResolution strategies[] = {
      ConflictResolution::kPriority, ConflictResolution::kLex,
      ConflictResolution::kMea, ConflictResolution::kFifo};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    ConflictSet cs;
    ReferenceConflictSet ref;
    // A run sticks to one strategy, except every fourth seed, which
    // switches on each claim (the index re-sorts).
    const bool switching = seed % 4 == 0;
    ConflictResolution strategy = strategies[seed % 4];
    size_t claims = 0;
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = rng.Uniform(10);
      if (op < 4) {
        auto wme = [&] {
          return MakeWme(1 + rng.Uniform(5), 1 + rng.Uniform(3));
        };
        auto inst = std::make_shared<Instantiation>(
            rules[rng.Uniform(rules.size())],
            std::vector<WmePtr>{wme(), wme()});
        cs.Activate(inst);
        ref.Activate(inst);
      } else if (op < 6) {
        if (switching) strategy = strategies[rng.Uniform(4)];
        InstPtr want = ref.Select(strategy);
        InstPtr got = cs.Claim(strategy, &rng);
        ASSERT_EQ(want == nullptr, got == nullptr)
            << "seed " << seed << " step " << step;
        if (got != nullptr) {
          ASSERT_EQ(got->key(), want->key())
              << "seed " << seed << " step " << step << " strategy "
              << ConflictResolutionToString(strategy);
          ref.Claim(got);
          ++claims;
        }
      } else if (op < 7 && ref.size() > 0) {
        auto active = ref.active();
        const InstKey key = active[rng.Uniform(active.size())]->key();
        cs.Deactivate(key);
        ref.Deactivate(key);
      } else if (op < 9 && ref.num_claimed() > 0) {
        const InstKey key =
            ref.claims()[rng.Uniform(ref.num_claimed())]->key();
        if (op == 7) {
          cs.Unclaim(key);
          ref.EndClaim(key);
        } else {
          cs.MarkFired(key);
          ref.EndClaim(key);
          ref.Deactivate(key);
        }
      } else if (op == 9) {
        cs.BeginPropagation();
        ref.BeginPropagation();
      }
      ASSERT_EQ(cs.size(), ref.size());
      ASSERT_EQ(cs.num_claimed(), ref.num_claimed());
    }
    EXPECT_GT(claims, 20u) << "seed " << seed;
  }
}

TEST(ConflictResolution, SelectDominantEmpty) {
  Random rng(1);
  EXPECT_EQ(SelectDominant({}, ConflictResolution::kLex, &rng), nullptr);
}

}  // namespace
}  // namespace dbps
