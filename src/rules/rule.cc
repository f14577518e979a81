#include "rules/rule.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dbps {

const char* TestPredicateToString(TestPredicate pred) {
  switch (pred) {
    case TestPredicate::kEq:
      return "=";
    case TestPredicate::kNe:
      return "<>";
    case TestPredicate::kLt:
      return "<";
    case TestPredicate::kLe:
      return "<=";
    case TestPredicate::kGt:
      return ">";
    case TestPredicate::kGe:
      return ">=";
  }
  return "?";
}

bool EvalPredicate(TestPredicate pred, const Value& lhs, const Value& rhs) {
  switch (pred) {
    case TestPredicate::kEq:
      return lhs == rhs;
    case TestPredicate::kNe:
      return lhs != rhs;
    case TestPredicate::kLt:
      return lhs.Comparable(rhs) && lhs < rhs;
    case TestPredicate::kLe:
      return lhs.Comparable(rhs) && lhs <= rhs;
    case TestPredicate::kGt:
      return lhs.Comparable(rhs) && lhs > rhs;
    case TestPredicate::kGe:
      return lhs.Comparable(rhs) && lhs >= rhs;
  }
  return false;
}

Rule::Rule(std::string name, std::vector<Condition> conditions,
           std::vector<Action> actions)
    : name_(std::move(name)),
      conditions_(std::move(conditions)),
      actions_(std::move(actions)) {
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (!conditions_[i].negated) positive_to_condition_.push_back(i);
  }
  num_positive_ = positive_to_condition_.size();
  DBPS_CHECK_GT(num_positive_, 0u)
      << "rule '" << name_ << "' has no positive condition element";
  specificity_ = 0;
  for (const Condition& cond : conditions_) {
    specificity_ += cond.constant_tests.size() + cond.member_tests.size() +
                    cond.intra_tests.size() + cond.join_tests.size() +
                    1;  // +1 for the relation test itself
  }
  for (const Action& action : actions_) {
    if (const auto* modify = std::get_if<ModifyAction>(&action)) {
      written_ces_.push_back(modify->ce);
    } else if (const auto* remove = std::get_if<RemoveAction>(&action)) {
      written_ces_.push_back(remove->ce);
    }
  }
  std::sort(written_ces_.begin(), written_ces_.end());
  written_ces_.erase(std::unique(written_ces_.begin(), written_ces_.end()),
                     written_ces_.end());
}

namespace {
void AppendExpr(std::ostream& os, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kConstant:
      os << e.constant;
      break;
    case Expr::Kind::kBinding:
      os << "$" << e.ce << "." << e.field;
      break;
    case Expr::Kind::kBinary: {
      const char* op = "?";
      switch (e.op) {
        case BinOp::kAdd:
          op = "+";
          break;
        case BinOp::kSub:
          op = "-";
          break;
        case BinOp::kMul:
          op = "*";
          break;
        case BinOp::kDiv:
          op = "/";
          break;
        case BinOp::kMod:
          op = "mod";
          break;
      }
      os << "(" << op << " ";
      AppendExpr(os, *e.lhs);
      os << " ";
      AppendExpr(os, *e.rhs);
      os << ")";
      break;
    }
  }
}
}  // namespace

std::string Rule::ToString() const {
  std::ostringstream out;
  out << "(rule " << name_;
  if (priority_ != 0) out << " :priority " << priority_;
  if (cost_us_ != 0) out << " :cost " << cost_us_;
  for (const auto& cond : conditions_) {
    out << "\n  " << (cond.negated ? "-(" : "(") << SymName(cond.relation);
    for (const auto& t : cond.constant_tests) {
      out << " [" << t.field << "]" << TestPredicateToString(t.pred)
          << t.value;
    }
    for (const auto& t : cond.member_tests) {
      out << " [" << t.field << "]in{";
      for (size_t i = 0; i < t.values.size(); ++i) {
        out << (i ? "," : "") << t.values[i];
      }
      out << "}";
    }
    for (const auto& t : cond.intra_tests) {
      out << " [" << t.field << "]" << TestPredicateToString(t.pred) << "["
          << t.other_field << "]";
    }
    for (const auto& t : cond.join_tests) {
      out << " [" << t.field << "]" << TestPredicateToString(t.pred) << "$"
          << t.other_ce << "." << t.other_field;
    }
    out << ")";
  }
  out << "\n  -->";
  for (const auto& action : actions_) {
    out << "\n  ";
    if (const auto* make = std::get_if<MakeAction>(&action)) {
      out << "(make " << SymName(make->relation);
      for (const auto& e : make->values) {
        out << " ";
        AppendExpr(out, e);
      }
      out << ")";
    } else if (const auto* modify = std::get_if<ModifyAction>(&action)) {
      out << "(modify $" << modify->ce;
      for (const auto& [field, expr] : modify->assigns) {
        out << " [" << field << "]=";
        AppendExpr(out, expr);
      }
      out << ")";
    } else if (const auto* remove = std::get_if<RemoveAction>(&action)) {
      out << "(remove $" << remove->ce << ")";
    } else {
      out << "(halt)";
    }
  }
  out << ")";
  return out.str();
}

Status RuleSet::Add(RulePtr rule) {
  DBPS_CHECK(rule != nullptr);
  if (by_name_.count(rule->name()) != 0) {
    return Status::AlreadyExists("rule '" + rule->name() +
                                 "' already defined");
  }
  by_name_.emplace(rule->name(), rules_.size());
  rules_.push_back(std::move(rule));
  return Status::OK();
}

RulePtr RuleSet::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : rules_[it->second];
}

}  // namespace dbps
