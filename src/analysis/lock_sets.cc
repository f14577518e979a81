#include "analysis/lock_sets.h"

#include <algorithm>
#include <map>
#include <set>

namespace dbps {

namespace {

void SortAndDedupe(std::vector<LockRequest>* requests) {
  std::sort(requests->begin(), requests->end(),
            [](const LockRequest& a, const LockRequest& b) {
              if (!(a.object == b.object)) return a.object < b.object;
              return static_cast<int>(a.mode) < static_cast<int>(b.mode);
            });
  requests->erase(std::unique(requests->begin(), requests->end()),
                  requests->end());
}

void CollectBindingCes(const Expr& expr, std::set<size_t>* ces) {
  switch (expr.kind) {
    case Expr::Kind::kConstant:
      return;
    case Expr::Kind::kBinding:
      ces->insert(expr.ce);
      return;
    case Expr::Kind::kBinary:
      CollectBindingCes(*expr.lhs, ces);
      CollectBindingCes(*expr.rhs, ces);
      return;
  }
}

}  // namespace

std::vector<LockRequest> ConditionLocks(const Instantiation& inst) {
  std::vector<LockRequest> requests;
  for (const auto& wme : inst.matched()) {
    requests.push_back(
        LockRequest{LockObjectId{wme->relation(), wme->id()}, LockMode::kRc});
  }
  for (const auto& cond : inst.rule()->conditions()) {
    if (cond.negated) {
      requests.push_back(LockRequest{
          LockObjectId{cond.relation, kRelationLevel}, LockMode::kRc});
    }
  }
  SortAndDedupe(&requests);
  return requests;
}

std::vector<LockRequest> EscalateConditionLocks(
    std::vector<LockRequest> requests, size_t threshold) {
  if (threshold == 0) return requests;
  std::map<SymbolId, size_t> tuple_rc_per_relation;
  for (const auto& request : requests) {
    if (request.mode == LockMode::kRc && !request.object.is_relation_level()) {
      ++tuple_rc_per_relation[request.object.relation];
    }
  }
  std::vector<LockRequest> out;
  std::set<SymbolId> escalated;
  for (const auto& [relation, count] : tuple_rc_per_relation) {
    if (count > threshold) escalated.insert(relation);
  }
  if (escalated.empty()) return requests;
  for (auto& request : requests) {
    if (request.mode == LockMode::kRc &&
        !request.object.is_relation_level() &&
        escalated.count(request.object.relation) != 0) {
      continue;  // subsumed by the relation-level lock below
    }
    out.push_back(request);
  }
  for (SymbolId relation : escalated) {
    out.push_back(LockRequest{LockObjectId{relation, kRelationLevel},
                              LockMode::kRc});
  }
  SortAndDedupe(&out);
  return out;
}

StatusOr<std::vector<LockRequest>> DeltaActionLocks(const WorkingMemory& wm,
                                                    const Delta& delta,
                                                    TxnId txn) {
  std::vector<LockRequest> requests;
  for (const WmOp& op : delta.ops()) {
    if (const auto* create = std::get_if<CreateOp>(&op)) {
      requests.push_back(LockRequest{
          InsertIntentObject(create->relation, txn), LockMode::kWa});
    } else {
      const WmeId id = std::holds_alternative<ModifyOp>(op)
                           ? std::get<ModifyOp>(op).id
                           : std::get<DeleteOp>(op).id;
      WmePtr wme = wm.Get(id);
      if (wme == nullptr) {
        return Status::NotFound("delta names dead WME id " +
                                std::to_string(id));
      }
      requests.push_back(LockRequest{LockObjectId{wme->relation(), id},
                                     LockMode::kWa});
    }
  }
  SortAndDedupe(&requests);
  return requests;
}

std::vector<LockRequest> ActionLocks(const Instantiation& inst, TxnId txn) {
  const Rule& rule = *inst.rule();
  // Positive CEs whose tuple gets Wa (sorted).
  const std::vector<size_t>& wa_ces = rule.written_ces();
  std::set<size_t> read_ces;  // positive CEs read by RHS expressions
  std::vector<LockRequest> requests;

  for (const auto& action : rule.actions()) {
    if (const auto* make = std::get_if<MakeAction>(&action)) {
      requests.push_back(LockRequest{InsertIntentObject(make->relation, txn),
                                     LockMode::kWa});
      for (const auto& expr : make->values) {
        CollectBindingCes(expr, &read_ces);
      }
    } else if (const auto* modify = std::get_if<ModifyAction>(&action)) {
      for (const auto& [field, expr] : modify->assigns) {
        (void)field;
        CollectBindingCes(expr, &read_ces);
      }
    }
  }

  for (size_t ce : wa_ces) {
    const WmePtr& wme = inst.matched()[ce];
    requests.push_back(LockRequest{LockObjectId{wme->relation(), wme->id()},
                                   LockMode::kWa});
  }
  for (size_t ce : read_ces) {
    // Wa subsumes the action read.
    if (std::binary_search(wa_ces.begin(), wa_ces.end(), ce)) continue;
    const WmePtr& wme = inst.matched()[ce];
    requests.push_back(LockRequest{LockObjectId{wme->relation(), wme->id()},
                                   LockMode::kRa});
  }
  SortAndDedupe(&requests);
  return requests;
}

}  // namespace dbps
