#include "match/treat.h"

#include "util/logging.h"

namespace dbps {

Status TreatMatcher::Initialize(RuleSetPtr rules, const WorkingMemory& wm) {
  DBPS_CHECK(rules_ == nullptr) << "Initialize called twice";
  rules_ = std::move(rules);
  for (const auto& rule : rules_->rules()) {
    RuleState state;
    state.rule = rule;
    for (const auto& cond : rule->conditions()) {
      CondMem mem;
      mem.cond = &cond;
      if (cond.negated) {
        state.negatives.push_back(std::move(mem));
      } else {
        state.positives.push_back(std::move(mem));
      }
    }
    states_.push_back(std::move(state));
  }
  for (SymbolId relation : wm.catalog().relation_names()) {
    for (const WmePtr& wme : wm.Scan(relation)) {
      AddWme(wme);
    }
  }
  return Status::OK();
}

void TreatMatcher::ApplyChange(const WmChange& change) {
  conflict_set_.BeginPropagation();
  for (const WmePtr& wme : change.removed) RemoveWme(wme);
  for (const WmePtr& wme : change.added) AddWme(wme);
}

void TreatMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  conflict_set_.BeginPropagation();
  // All removals, then all additions — see ReteMatcher::ApplyChanges for
  // why this is sound on pairwise-disjoint batches.
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.removed) RemoveWme(wme);
  }
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.added) AddWme(wme);
  }
}

size_t TreatMatcher::AlphaItemCount() const {
  size_t total = 0;
  for (const auto& state : states_) {
    for (const auto& mem : state.positives) total += mem.items.size();
    for (const auto& mem : state.negatives) total += mem.items.size();
  }
  return total;
}

bool TreatMatcher::PassesAlpha(const Condition& cond, const Wme& wme) {
  if (cond.relation != wme.relation()) return false;
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

bool TreatMatcher::PassesJoins(const Condition& cond, const Wme& wme,
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

bool TreatMatcher::Blocked(const CondMem& mem,
                           const std::vector<WmePtr>& matched) {
  for (const auto& [raw, wme] : mem.items) {
    if (PassesJoins(*mem.cond, *raw, matched)) return true;
  }
  return false;
}

void TreatMatcher::Activate(RuleState* state, std::vector<WmePtr> matched) {
  auto inst =
      std::make_shared<Instantiation>(state->rule, std::move(matched));
  InstKey key = inst->key();
  if (state->insts.emplace(key, inst).second) {
    conflict_set_.Activate(std::move(inst));
  }
}

void TreatMatcher::JoinFrom(RuleState* state, size_t depth, size_t seed_pos,
                            const Wme* seed,
                            std::vector<WmePtr>* matched) {
  if (depth == state->positives.size()) {
    for (const auto& mem : state->negatives) {
      if (Blocked(mem, *matched)) return;
    }
    Activate(state, *matched);
    return;
  }
  if (depth == seed_pos) {
    // The seed is pinned here; it already passed this CE's alpha tests.
    const WmePtr& pinned = state->positives[depth].items.at(seed);
    if (!PassesJoins(*state->positives[depth].cond, *pinned, *matched)) {
      return;
    }
    matched->push_back(pinned);
    JoinFrom(state, depth + 1, seed_pos, seed, matched);
    matched->pop_back();
    return;
  }
  for (const auto& [raw, wme] : state->positives[depth].items) {
    // Duplicate suppression for self-joins: positions before the seed
    // never use the seed WME (a match using it there is found when the
    // earlier position is the seed instead).
    if (seed != nullptr && depth < seed_pos && raw == seed) continue;
    if (!PassesJoins(*state->positives[depth].cond, *raw, *matched)) {
      continue;
    }
    matched->push_back(wme);
    JoinFrom(state, depth + 1, seed_pos, seed, matched);
    matched->pop_back();
  }
}

void TreatMatcher::SeededJoin(RuleState* state, size_t seed_pos,
                              const WmePtr& seed) {
  std::vector<WmePtr> matched;
  matched.reserve(state->positives.size());
  JoinFrom(state, 0, seed_pos, seed.get(), &matched);
}

void TreatMatcher::FullJoin(RuleState* state) {
  std::vector<WmePtr> matched;
  matched.reserve(state->positives.size());
  // seed_pos beyond the CE count: nothing pinned, nothing suppressed.
  JoinFrom(state, 0, state->positives.size(), nullptr, &matched);
}

void TreatMatcher::AddWme(const WmePtr& wme) {
  // Enter every alpha memory first (so negation checks during the joins
  // below already see the new WME).
  for (auto& state : states_) {
    for (auto& mem : state.positives) {
      if (PassesAlpha(*mem.cond, *wme)) mem.items.emplace(wme.get(), wme);
    }
    for (auto& mem : state.negatives) {
      if (PassesAlpha(*mem.cond, *wme)) mem.items.emplace(wme.get(), wme);
    }
  }
  for (auto& state : states_) {
    // New instantiations: seeded join per positive CE the WME entered.
    for (size_t pos = 0; pos < state.positives.size(); ++pos) {
      if (state.positives[pos].items.count(wme.get()) != 0) {
        SeededJoin(&state, pos, wme);
      }
    }
    // Newly blocked instantiations: retract what the WME now blocks.
    for (const auto& mem : state.negatives) {
      if (mem.items.count(wme.get()) == 0) continue;
      std::vector<InstKey> retracted;
      for (const auto& [key, inst] : state.insts) {
        if (PassesJoins(*mem.cond, *wme, inst->matched())) {
          retracted.push_back(key);
        }
      }
      for (const auto& key : retracted) {
        state.insts.erase(key);
        conflict_set_.Deactivate(key);
      }
    }
  }
}

void TreatMatcher::RemoveWme(const WmePtr& wme) {
  for (auto& state : states_) {
    bool touched_positive = false;
    bool touched_negative = false;
    for (auto& mem : state.positives) {
      touched_positive |= mem.items.erase(wme.get()) > 0;
    }
    for (auto& mem : state.negatives) {
      touched_negative |= mem.items.erase(wme.get()) > 0;
    }
    if (touched_positive) {
      // Token-free deletion: drop every instantiation built on the WME.
      std::vector<InstKey> retracted;
      for (const auto& [key, inst] : state.insts) {
        for (const auto& matched : inst->matched()) {
          if (matched.get() == wme.get()) {
            retracted.push_back(key);
            break;
          }
        }
      }
      for (const auto& key : retracted) {
        state.insts.erase(key);
        conflict_set_.Deactivate(key);
      }
    }
    if (touched_negative) {
      // The WME may have been the last blocker of some matches: re-join.
      FullJoin(&state);
    }
  }
}

}  // namespace dbps
