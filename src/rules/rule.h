// Compiled production rules.
//
// This is the executable form produced by the lang compiler (or built
// programmatically): name-resolved, variable references lowered to
// (condition-element, field) coordinates, tests split into the classes
// the matchers need:
//
//   * constant tests — field vs literal            (alpha network)
//   * intra tests    — field vs field, same WME    (alpha network)
//   * join tests     — field vs earlier CE's field (beta network)

#ifndef DBPS_RULES_RULE_H_
#define DBPS_RULES_RULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "value/value.h"
#include "wm/schema.h"

namespace dbps {

/// Comparison predicates of the rule language.
enum class TestPredicate : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* TestPredicateToString(TestPredicate pred);

/// Evaluates `lhs pred rhs`; ordered predicates on incomparable values
/// are simply false (OPS5 treats e.g. `red > 3` as a failed test).
bool EvalPredicate(TestPredicate pred, const Value& lhs, const Value& rhs);

/// field(wme) pred constant.
struct ConstantTest {
  size_t field;
  TestPredicate pred;
  Value value;
};

/// field(wme) IN {values} — an OPS5 value disjunction << ... >>.
struct MemberTest {
  size_t field;
  std::vector<Value> values;

  bool Eval(const Value& v) const {
    for (const auto& candidate : values) {
      if (v == candidate) return true;
    }
    return false;
  }
};

/// field(wme) pred other_field(same wme).
struct IntraTest {
  size_t field;
  TestPredicate pred;
  size_t other_field;
};

/// field(wme) pred other_field(wme matched by earlier positive CE).
struct JoinTest {
  size_t field;
  TestPredicate pred;
  size_t other_ce;     ///< positive-CE index (0-based)
  size_t other_field;
};

/// \brief One condition element of a rule's LHS.
struct Condition {
  bool negated = false;
  SymbolId relation = 0;
  std::vector<ConstantTest> constant_tests;
  std::vector<MemberTest> member_tests;
  std::vector<IntraTest> intra_tests;
  std::vector<JoinTest> join_tests;
};

// --- RHS expressions --------------------------------------------------------

enum class BinOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };

/// \brief Compiled RHS expression: literal | bound variable | arithmetic.
struct Expr {
  enum class Kind : uint8_t { kConstant, kBinding, kBinary };

  Kind kind = Kind::kConstant;
  Value constant;                       // kConstant
  size_t ce = 0;                        // kBinding: positive-CE index
  size_t field = 0;                     // kBinding: field within that WME
  BinOp op = BinOp::kAdd;               // kBinary
  std::shared_ptr<const Expr> lhs, rhs; // kBinary

  static Expr Constant(Value v) {
    Expr e;
    e.kind = Kind::kConstant;
    e.constant = std::move(v);
    return e;
  }
  static Expr Binding(size_t ce, size_t field) {
    Expr e;
    e.kind = Kind::kBinding;
    e.ce = ce;
    e.field = field;
    return e;
  }
  static Expr Binary(BinOp op, Expr l, Expr r) {
    Expr e;
    e.kind = Kind::kBinary;
    e.op = op;
    e.lhs = std::make_shared<const Expr>(std::move(l));
    e.rhs = std::make_shared<const Expr>(std::move(r));
    return e;
  }
};

// --- RHS actions --------------------------------------------------------------

/// (make relation ^a e ...) — unassigned attributes default to nil.
struct MakeAction {
  SymbolId relation;
  /// Dense per-field expressions (arity of the relation).
  std::vector<Expr> values;
};

/// (modify <n> ^a e ...) — n names a positive CE (0-based once compiled).
struct ModifyAction {
  size_t ce;
  std::vector<std::pair<size_t, Expr>> assigns;
};

/// (remove <n>).
struct RemoveAction {
  size_t ce;
};

/// (halt) — stops the engine after this firing commits.
struct HaltAction {};

using Action = std::variant<MakeAction, ModifyAction, RemoveAction, HaltAction>;

// --- The rule -----------------------------------------------------------------

/// \brief A compiled production.
class Rule {
 public:
  Rule(std::string name, std::vector<Condition> conditions,
       std::vector<Action> actions);

  const std::string& name() const { return name_; }
  const std::vector<Condition>& conditions() const { return conditions_; }
  const std::vector<Action>& actions() const { return actions_; }

  /// Number of positive (non-negated) condition elements; instantiations
  /// carry exactly this many matched WMEs.
  size_t num_positive() const { return num_positive_; }

  /// Maps positive-CE index -> index in conditions().
  size_t PositiveConditionIndex(size_t positive_ce) const {
    return positive_to_condition_[positive_ce];
  }

  /// LEX/MEA specificity: the number of tests in the LHS, counting each
  /// condition element's relation test.
  size_t specificity() const { return specificity_; }

  /// Positive CEs whose matched tuple the RHS modifies or removes,
  /// ascending and deduplicated.
  const std::vector<size_t>& written_ces() const { return written_ces_; }

  /// Conflict-resolution priority (higher fires first under kPriority).
  int priority() const { return priority_; }
  void set_priority(int priority) { priority_ = priority; }

  /// Synthetic execution cost in microseconds (busy-spun by engines);
  /// models the paper's per-production execution times T(Pi).
  int64_t cost_us() const { return cost_us_; }
  void set_cost_us(int64_t cost_us) { cost_us_ = cost_us; }

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Condition> conditions_;
  std::vector<Action> actions_;
  std::vector<size_t> positive_to_condition_;
  size_t num_positive_;
  size_t specificity_;
  std::vector<size_t> written_ces_;
  int priority_ = 0;
  int64_t cost_us_ = 0;
};

using RulePtr = std::shared_ptr<const Rule>;

/// \brief An ordered collection of uniquely named rules.
class RuleSet {
 public:
  /// Fails with AlreadyExists on duplicate rule names.
  Status Add(RulePtr rule);

  const std::vector<RulePtr>& rules() const { return rules_; }
  size_t size() const { return rules_.size(); }

  /// Looks a rule up by name; nullptr if absent.
  RulePtr Find(const std::string& name) const;

 private:
  std::vector<RulePtr> rules_;
  std::unordered_map<std::string, size_t> by_name_;
};

using RuleSetPtr = std::shared_ptr<const RuleSet>;

}  // namespace dbps

#endif  // DBPS_RULES_RULE_H_
