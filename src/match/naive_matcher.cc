#include "match/naive_matcher.h"

#include "util/logging.h"

namespace dbps {

Status NaiveMatcher::Initialize(RuleSetPtr rules, const WorkingMemory& wm) {
  DBPS_CHECK(rules_ == nullptr) << "Initialize called twice";
  rules_ = std::move(rules);
  wm_ = &wm;
  Recompute();
  return Status::OK();
}

void NaiveMatcher::ApplyChange(const WmChange& change) {
  conflict_set_.BeginPropagation();
  (void)change;  // the naive matcher always rematches everything
  Recompute();
}

void NaiveMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  conflict_set_.BeginPropagation();
  // The clearest amortization win: one full rematch for the whole batch
  // instead of one per change.
  if (!changes.empty()) Recompute();
}

void NaiveMatcher::Recompute() {
  // Pin the snapshot once: every Scan in this rematch reads the same CSN.
  const WmSnapshot snap = wm_->SnapshotAt();
  std::unordered_map<InstKey, InstPtr, InstKeyHash> current;
  for (const auto& rule : rules_->rules()) {
    MatchRule(rule, snap, &current);
  }
  // Deactivate vanished instantiations...
  std::vector<InstKey> gone;
  for (const auto& inst : conflict_set_.Snapshot()) {
    if (current.count(inst->key()) == 0) gone.push_back(inst->key());
  }
  for (const auto& key : gone) conflict_set_.Deactivate(key);
  // ...and activate new ones.
  for (auto& [key, inst] : current) {
    if (!conflict_set_.Contains(key)) conflict_set_.Activate(inst);
  }
}

void NaiveMatcher::MatchRule(
    const RulePtr& rule, const WmSnapshot& snap,
    std::unordered_map<InstKey, InstPtr, InstKeyHash>* out) const {
  std::vector<const Condition*> positives;
  for (const auto& cond : rule->conditions()) {
    if (!cond.negated) positives.push_back(&cond);
  }
  std::vector<WmePtr> matched;
  matched.reserve(positives.size());
  MatchPositive(rule, snap, positives, 0, &matched, out);
}

void NaiveMatcher::MatchPositive(
    const RulePtr& rule, const WmSnapshot& snap,
    const std::vector<const Condition*>& positives, size_t depth,
    std::vector<WmePtr>* matched,
    std::unordered_map<InstKey, InstPtr, InstKeyHash>* out) const {
  if (depth == positives.size()) {
    // All positive CEs matched; check the negated ones.
    for (const auto& cond : rule->conditions()) {
      if (cond.negated && NegationBlocked(cond, snap, *matched)) return;
    }
    auto inst = std::make_shared<Instantiation>(rule, *matched);
    out->emplace(inst->key(), std::move(inst));
    return;
  }
  const Condition& cond = *positives[depth];
  for (const WmePtr& wme : snap.Scan(cond.relation)) {
    if (!PassesLocalTests(cond, *wme)) continue;
    if (!PassesJoinTests(cond, *wme, *matched)) continue;
    matched->push_back(wme);
    MatchPositive(rule, snap, positives, depth + 1, matched, out);
    matched->pop_back();
  }
}

bool NaiveMatcher::PassesLocalTests(const Condition& cond, const Wme& wme) {
  for (const auto& test : cond.constant_tests) {
    if (!EvalPredicate(test.pred, wme.value(test.field), test.value)) {
      return false;
    }
  }
  for (const auto& test : cond.member_tests) {
    if (!test.Eval(wme.value(test.field))) return false;
  }
  for (const auto& test : cond.intra_tests) {
    if (!EvalPredicate(test.pred, wme.value(test.field),
                       wme.value(test.other_field))) {
      return false;
    }
  }
  return true;
}

bool NaiveMatcher::PassesJoinTests(const Condition& cond, const Wme& wme,
                                   const std::vector<WmePtr>& matched) {
  for (const auto& test : cond.join_tests) {
    DBPS_DCHECK(test.other_ce < matched.size());
    if (!EvalPredicate(test.pred, wme.value(test.field),
                       matched[test.other_ce]->value(test.other_field))) {
      return false;
    }
  }
  return true;
}

bool NaiveMatcher::NegationBlocked(const Condition& cond,
                                   const WmSnapshot& snap,
                                   const std::vector<WmePtr>& matched) const {
  for (const WmePtr& wme : snap.Scan(cond.relation)) {
    if (PassesLocalTests(cond, *wme) &&
        PassesJoinTests(cond, *wme, matched)) {
      return true;
    }
  }
  return false;
}

}  // namespace dbps
