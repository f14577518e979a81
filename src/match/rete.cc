#include "match/rete.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "match/naive_matcher.h"
#include "match/treat.h"
#include "util/logging.h"

namespace dbps {
namespace rete {

struct Token;
class TokenHolder;
class NegativeNode;

/// A test an alpha memory applies to a single WME.
struct AlphaTest {
  enum class Kind : uint8_t { kConstant, kIntraField, kMember };
  Kind kind;
  size_t field;
  TestPredicate pred = TestPredicate::kEq;  // kConstant / kIntraField
  Value value;                              // kConstant
  size_t other_field = 0;                   // kIntraField
  std::vector<Value> members;               // kMember

  bool Eval(const Wme& wme) const {
    switch (kind) {
      case Kind::kConstant:
        return EvalPredicate(pred, wme.value(field), value);
      case Kind::kIntraField:
        return EvalPredicate(pred, wme.value(field),
                             wme.value(other_field));
      case Kind::kMember:
        for (const auto& candidate : members) {
          if (wme.value(field) == candidate) return true;
        }
        return false;
    }
    return false;
  }

  std::string Key() const {
    std::string out = std::to_string(field);
    switch (kind) {
      case Kind::kConstant:
        out += TestPredicateToString(pred);
        out += "c" + value.ToString();
        break;
      case Kind::kIntraField:
        out += TestPredicateToString(pred);
        out += "f" + std::to_string(other_field);
        break;
      case Kind::kMember:
        out += "in{";
        for (const auto& candidate : members) {
          out += candidate.ToString() + ",";
        }
        out += "}";
        break;
    }
    return out;
  }
};

/// A variable-consistency test a join/negative node applies between the
/// candidate WME and an earlier token's WME.
struct BetaTest {
  size_t field;       // field of the candidate WME
  TestPredicate pred;
  size_t levels_up;   // parent steps from the *left token* to the other WME
  size_t other_field;
};

/// The test a join/negative node hashes its inputs on: its first equality
/// test, or null when it has none (the node then scans).
inline const BetaTest* FirstEqualityTest(const std::vector<BetaTest>& tests) {
  for (const BetaTest& test : tests) {
    if (test.pred == TestPredicate::kEq) return &test;
  }
  return nullptr;
}

/// Hash buckets keyed by ValueBucketEq, which is coarser than ==: every
/// bucket member is still handed to the join tests.
template <typename T>
using ValueBuckets = std::unordered_map<Value, T, ValueHash, ValueBucketEq>;

using WmeSet = std::unordered_map<const Wme*, WmePtr>;

/// Appends `item` to `vec`, remembering its slot in `item->*pos`.
template <typename T>
void Link(std::vector<T*>* vec, T* item, size_t T::*pos) {
  item->*pos = vec->size();
  vec->push_back(item);
}

/// O(1) removal of a Link()ed item: the last element takes its slot.
template <typename T>
void Unlink(std::vector<T*>* vec, T* item, size_t T::*pos) {
  T* last = vec->back();
  (*vec)[item->*pos] = last;
  last->*pos = item->*pos;
  vec->pop_back();
}

/// Right-input listener: joins and negative nodes.
class AlphaSuccessor {
 public:
  virtual ~AlphaSuccessor() = default;
  virtual void OnWmeAdded(const WmePtr& wme) = 0;
};

struct AlphaMemory {
  std::vector<AlphaTest> tests;
  SymbolId relation;
  /// Items currently passing the tests (value keeps the version alive).
  WmeSet items;
  /// The same items bucketed by value, for each field a successor joins
  /// on by equality.
  std::unordered_map<size_t, ValueBuckets<WmeSet>> index;
  /// Descendant-first order (deeper nodes first) — required so a shared
  /// alpha memory does not produce duplicate matches within one rule.
  std::vector<AlphaSuccessor*> successors;

  bool Matches(const Wme& wme) const {
    for (const auto& test : tests) {
      if (!test.Eval(wme)) return false;
    }
    return true;
  }

  /// Called while the network is built, before any WME arrives.
  void IndexField(size_t field) {
    DBPS_CHECK(items.empty());
    index.try_emplace(field);
  }

  void Add(const WmePtr& wme) {
    items.emplace(wme.get(), wme);
    for (auto& [field, buckets] : index) {
      buckets[wme->value(field)].emplace(wme.get(), wme);
    }
  }

  void Remove(const Wme* wme) {
    items.erase(wme);
    for (auto& [field, buckets] : index) {
      auto it = buckets.find(wme->value(field));
      DBPS_DCHECK(it != buckets.end());
      it->second.erase(wme);
      if (it->second.empty()) buckets.erase(it);
    }
  }

  /// The items whose `field` may equal `key`, or null if none can.
  const WmeSet* Probe(size_t field, const Value& key) const {
    const auto& buckets = index.at(field);
    auto it = buckets.find(key);
    return it == buckets.end() ? nullptr : &it->second;
  }
};

struct NegJoinResult {
  Token* owner;
  const Wme* wme;
  size_t owner_pos = 0;  // slot in owner->join_results
  size_t wme_pos = 0;    // slot in the WME's WmeInfo::neg_results
};

struct Token {
  Token* parent = nullptr;
  WmePtr wme;  // null for the dummy token and negative-node tokens
  TokenHolder* holder = nullptr;
  std::vector<Token*> children;
  /// Only for negative-node tokens: the WMEs currently blocking them.
  std::vector<NegJoinResult*> join_results;
  size_t holder_pos = 0;  // slot in holder->tokens
  size_t child_pos = 0;   // slot in parent->children
  size_t wme_pos = 0;     // slot in the WME's WmeInfo::tokens
};

/// Left-input listener: joins, negative nodes, production nodes.
class Successor {
 public:
  virtual ~Successor() = default;
  /// `t` was added to (and is active in) the upstream holder.
  virtual void OnTokenAdded(Token* t) = 0;
  /// `t` is leaving the upstream holder (or became blocked). Also fires
  /// for a blocked token that is deleted, so it may repeat a removal.
  virtual void OnTokenRemoved(Token* t) = 0;
};

/// Common base of BetaMemory and NegativeNode: stores tokens and forwards
/// activation events to successors.
class TokenHolder {
 public:
  virtual ~TokenHolder() = default;

  /// True iff `t` currently propagates downstream (negative nodes block
  /// tokens that have join results).
  virtual bool TokenActive(const Token* t) const {
    (void)t;
    return true;
  }

  /// `t` is about to be destroyed (its descendants already are).
  virtual void Forget(Token* t) { (void)t; }

  std::vector<Token*> tokens;
  std::vector<Successor*> successors;
};

class BetaMemory : public TokenHolder {};

struct WmeInfo {
  WmePtr wme;
  std::vector<AlphaMemory*> amems;
  std::vector<Token*> tokens;               // BM tokens whose wme this is
  std::vector<NegJoinResult*> neg_results;  // results blocking neg tokens
};

/// Walks `n` parent links up from `t`.
inline const Token* WalkUp(const Token* t, size_t n) {
  while (n-- > 0) {
    DBPS_DCHECK(t->parent != nullptr);
    t = t->parent;
  }
  return t;
}

/// The value of `key`'s other field in the chain ending in token `t`.
inline const Value& TokenKey(const BetaTest& key, const Token* t) {
  const Token* other = WalkUp(t, key.levels_up);
  DBPS_DCHECK(other->wme != nullptr);
  return other->wme->value(key.other_field);
}

/// Tokens bucketed by TokenKey — a node's active left tokens.
class TokenIndex {
 public:
  explicit TokenIndex(const BetaTest* key) : key_(key) {}

  void Insert(Token* t) { buckets_[TokenKey(*key_, t)].insert(t); }

  /// Tolerates tokens that are not indexed.
  void Erase(Token* t) {
    auto it = buckets_.find(TokenKey(*key_, t));
    if (it == buckets_.end()) return;
    it->second.erase(t);
    if (it->second.empty()) buckets_.erase(it);
  }

  /// The tokens that may join a WME whose key field holds `value`.
  const std::unordered_set<Token*>* Probe(const Value& value) const {
    auto it = buckets_.find(value);
    return it == buckets_.end() ? nullptr : &it->second;
  }

 private:
  const BetaTest* key_;
  ValueBuckets<std::unordered_set<Token*>> buckets_;
};

class Network {
 public:
  ~Network();

  Status Build(RuleSetPtr rules, ConflictSet* conflict_set);
  void AddWme(const WmePtr& wme);
  void RemoveWme(const Wme* wme);

  ReteMatcher::Stats GetStats() const;
  std::string ToDot() const;

  // --- token plumbing (used by the node classes) ---

  Token* MakeToken(TokenHolder* holder, Token* parent, WmePtr wme) {
    Token* t = new Token();
    t->parent = parent;
    t->wme = std::move(wme);
    t->holder = holder;
    if (parent != nullptr) Link(&parent->children, t, &Token::child_pos);
    Link(&holder->tokens, t, &Token::holder_pos);
    if (t->wme != nullptr) {
      auto it = wme_infos_.find(t->wme.get());
      DBPS_CHECK(it != wme_infos_.end());
      Link(&it->second.tokens, t, &Token::wme_pos);
    }
    return t;
  }

  void AddNegJoinResult(Token* owner, const Wme* wme) {
    auto* result = new NegJoinResult{owner, wme};
    Link(&owner->join_results, result, &NegJoinResult::owner_pos);
    Link(&wme_infos_.at(wme).neg_results, result, &NegJoinResult::wme_pos);
  }

  /// Evaluates beta tests for candidate `wme` against the chain ending in
  /// left token `t`, counting the pair as a join candidate.
  bool PassesBetaTests(const std::vector<BetaTest>& tests, const Token* t,
                       const Wme& wme) {
    ++join_candidates_;
    for (const auto& test : tests) {
      const Token* other = WalkUp(t, test.levels_up);
      DBPS_DCHECK(other->wme != nullptr);
      if (!EvalPredicate(test.pred, wme.value(test.field),
                         other->wme->value(test.other_field))) {
        return false;
      }
    }
    return true;
  }

  /// Deletes t and its whole subtree, notifying production nodes.
  void DeleteToken(Token* t) {
    DeleteDescendants(t);
    for (Successor* s : t->holder->successors) s->OnTokenRemoved(t);
    CleanupToken(t);
  }

  /// Deletes only t's descendants (used when a negative token becomes
  /// blocked: the token itself stays, its downstream matches die).
  void DeleteDescendants(Token* t) {
    while (!t->children.empty()) DeleteToken(t->children.back());
  }

 private:
  void CleanupToken(Token* t) {
    for (NegJoinResult* result : t->join_results) {
      Unlink(&wme_infos_.at(result->wme).neg_results, result,
             &NegJoinResult::wme_pos);
      delete result;
    }
    t->join_results.clear();
    t->holder->Forget(t);
    Unlink(&t->holder->tokens, t, &Token::holder_pos);
    if (t->wme != nullptr) {
      auto it = wme_infos_.find(t->wme.get());
      if (it != wme_infos_.end()) {
        Unlink(&it->second.tokens, t, &Token::wme_pos);
      }
    }
    if (t->parent != nullptr) {
      Unlink(&t->parent->children, t, &Token::child_pos);
    }
    delete t;
  }

  AlphaMemory* GetOrCreateAlphaMemory(SymbolId relation,
                                      std::vector<AlphaTest> tests);

  RuleSetPtr rules_;
  BetaMemory* dummy_bm_ = nullptr;
  Token* dummy_token_ = nullptr;

  std::vector<std::unique_ptr<AlphaMemory>> alpha_memories_;
  std::unordered_map<SymbolId, std::vector<AlphaMemory*>> alpha_by_relation_;
  std::unordered_map<std::string, AlphaMemory*> alpha_by_key_;

  std::vector<std::unique_ptr<BetaMemory>> beta_memories_;
  std::vector<std::unique_ptr<class JoinNode>> join_nodes_;
  std::vector<std::unique_ptr<NegativeNode>> negative_nodes_;
  std::vector<std::unique_ptr<class ProductionNode>> production_nodes_;

  std::unordered_map<const Wme*, WmeInfo> wme_infos_;
  size_t join_candidates_ = 0;
};

/// A positive CE's join. With an equality test it hashes both inputs on
/// it: the alpha memory buckets its items, and the node buckets its
/// active left tokens (inserted on OnTokenAdded, dropped on
/// OnTokenRemoved, which also fires when an upstream negation blocks
/// them). Without one it scans.
class JoinNode : public Successor, public AlphaSuccessor {
 public:
  JoinNode(Network* network, TokenHolder* left, AlphaMemory* amem,
           std::vector<BetaTest> tests, BetaMemory* child)
      : network_(network),
        left_(left),
        amem_(amem),
        tests_(std::move(tests)),
        child_(child),
        key_(FirstEqualityTest(tests_)),
        left_index_(key_) {
    if (key_ != nullptr) amem_->IndexField(key_->field);
  }

  void OnTokenAdded(Token* t) override {
    const WmeSet* candidates = &amem_->items;
    if (key_ != nullptr) {
      left_index_.Insert(t);
      candidates = amem_->Probe(key_->field, TokenKey(*key_, t));
      if (candidates == nullptr) return;
    }
    for (const auto& [raw, wme] : *candidates) {
      if (network_->PassesBetaTests(tests_, t, *raw)) Emit(t, wme);
    }
  }

  void OnTokenRemoved(Token* t) override {
    // Subtree deletion removes the child tokens directly.
    if (key_ != nullptr) left_index_.Erase(t);
  }

  void OnWmeAdded(const WmePtr& wme) override {
    if (key_ == nullptr) {
      for (Token* t : left_->tokens) {
        if (left_->TokenActive(t) &&
            network_->PassesBetaTests(tests_, t, *wme)) {
          Emit(t, wme);
        }
      }
      return;
    }
    const auto* bucket = left_index_.Probe(wme->value(key_->field));
    if (bucket == nullptr) return;
    for (Token* t : *bucket) {
      if (network_->PassesBetaTests(tests_, t, *wme)) Emit(t, wme);
    }
  }

  BetaMemory* child() const { return child_; }

 private:
  void Emit(Token* t, const WmePtr& wme) {
    Token* child_token = network_->MakeToken(child_, t, wme);
    for (Successor* s : child_->successors) s->OnTokenAdded(child_token);
  }

  Network* network_;
  TokenHolder* left_;
  AlphaMemory* amem_;
  std::vector<BetaTest> tests_;
  BetaMemory* child_;
  const BetaTest* key_;  // into tests_, or null
  TokenIndex left_index_;
};

/// A negated CE. With an equality test it probes the alpha memory's
/// bucket on left activation and buckets its own tokens for right
/// activation; the network's Forget hook drops destroyed tokens.
class NegativeNode : public TokenHolder,
                     public Successor,
                     public AlphaSuccessor {
 public:
  NegativeNode(Network* network, AlphaMemory* amem,
               std::vector<BetaTest> tests)
      : network_(network),
        amem_(amem),
        tests_(std::move(tests)),
        key_(FirstEqualityTest(tests_)),
        own_index_(key_) {
    if (key_ != nullptr) amem_->IndexField(key_->field);
  }

  bool TokenActive(const Token* t) const override {
    return t->join_results.empty();
  }

  void Forget(Token* t) override {
    if (key_ != nullptr) own_index_.Erase(t);
  }

  // Left activation: upstream produced token `left`; store our own token
  // and propagate it iff nothing in the alpha memory blocks it.
  void OnTokenAdded(Token* left) override {
    Token* t = network_->MakeToken(this, left, nullptr);
    const WmeSet* candidates = &amem_->items;
    if (key_ != nullptr) {
      own_index_.Insert(t);
      candidates = amem_->Probe(key_->field, TokenKey(*key_, t));
    }
    if (candidates != nullptr) {
      for (const auto& [raw, wme] : *candidates) {
        (void)wme;
        if (network_->PassesBetaTests(tests_, t, *raw)) {
          network_->AddNegJoinResult(t, raw);
        }
      }
    }
    if (t->join_results.empty()) {
      for (Successor* s : successors) s->OnTokenAdded(t);
    }
  }

  void OnTokenRemoved(Token* t) override {
    (void)t;  // subtree deletion handles our tokens
  }

  // Right activation: a WME entered the alpha memory; newly blocked
  // tokens lose their downstream matches.
  void OnWmeAdded(const WmePtr& wme) override {
    if (key_ == nullptr) {
      for (Token* t : tokens) Block(t, wme.get());
      return;
    }
    const auto* bucket = own_index_.Probe(wme->value(key_->field));
    if (bucket == nullptr) return;
    for (Token* t : *bucket) Block(t, wme.get());
  }

  /// Called by the network when a blocking WME vanished and `t` has no
  /// join results left: the token becomes visible downstream again.
  void Reactivate(Token* t) {
    for (Successor* s : successors) s->OnTokenAdded(t);
  }

 private:
  void Block(Token* t, const Wme* wme) {
    if (!network_->PassesBetaTests(tests_, t, *wme)) return;
    const bool was_active = t->join_results.empty();
    network_->AddNegJoinResult(t, wme);
    if (was_active) {
      network_->DeleteDescendants(t);
      for (Successor* s : successors) s->OnTokenRemoved(t);
    }
  }

  Network* network_;
  AlphaMemory* amem_;
  std::vector<BetaTest> tests_;
  const BetaTest* key_;  // into tests_, or null
  TokenIndex own_index_;
};

class ProductionNode : public Successor {
 public:
  ProductionNode(RulePtr rule, ConflictSet* conflict_set,
                 std::vector<size_t> positive_levels)
      : rule_(std::move(rule)),
        conflict_set_(conflict_set),
        positive_levels_(std::move(positive_levels)) {}

  void OnTokenAdded(Token* t) override {
    // Collect the positive-CE WMEs along the chain. positive_levels_[i]
    // is the number of parent steps from t to positive CE i's token.
    std::vector<WmePtr> matched;
    matched.reserve(positive_levels_.size());
    for (size_t levels : positive_levels_) {
      const Token* holder_token = WalkUp(t, levels);
      DBPS_DCHECK(holder_token->wme != nullptr);
      matched.push_back(holder_token->wme);
    }
    auto inst = std::make_shared<Instantiation>(rule_, std::move(matched));
    by_token_.emplace(t, inst->key());
    conflict_set_->Activate(std::move(inst));
  }

  void OnTokenRemoved(Token* t) override {
    auto it = by_token_.find(t);
    if (it == by_token_.end()) return;  // token never reached us (blocked)
    conflict_set_->Deactivate(it->second);
    by_token_.erase(it);
  }

 private:
  RulePtr rule_;
  ConflictSet* conflict_set_;
  std::vector<size_t> positive_levels_;
  std::unordered_map<Token*, InstKey> by_token_;
};

Network::~Network() {
  if (dummy_token_ != nullptr) {
    DeleteDescendants(dummy_token_);
    CleanupToken(dummy_token_);
  }
}

AlphaMemory* Network::GetOrCreateAlphaMemory(SymbolId relation,
                                             std::vector<AlphaTest> tests) {
  // Canonicalize so structurally equal CEs share one memory.
  std::sort(tests.begin(), tests.end(),
            [](const AlphaTest& a, const AlphaTest& b) {
              return a.Key() < b.Key();
            });
  std::string key = SymName(relation);
  for (const auto& test : tests) key += "|" + test.Key();
  auto it = alpha_by_key_.find(key);
  if (it != alpha_by_key_.end()) return it->second;

  auto amem = std::make_unique<AlphaMemory>();
  amem->relation = relation;
  amem->tests = std::move(tests);
  AlphaMemory* raw = amem.get();
  alpha_memories_.push_back(std::move(amem));
  alpha_by_relation_[relation].push_back(raw);
  alpha_by_key_.emplace(std::move(key), raw);
  return raw;
}

Status Network::Build(RuleSetPtr rules, ConflictSet* conflict_set) {
  rules_ = std::move(rules);

  auto dummy = std::make_unique<BetaMemory>();
  dummy_bm_ = dummy.get();
  beta_memories_.push_back(std::move(dummy));
  dummy_token_ = MakeToken(dummy_bm_, nullptr, nullptr);

  for (const auto& rule : rules_->rules()) {
    TokenHolder* current = dummy_bm_;
    size_t chain_len = 0;                     // tokens below dummy so far
    std::vector<size_t> positive_chain_pos;   // chain index per positive CE
    // A rule that *starts* with negated CEs needs its first negative
    // node left-activated with the dummy token once the whole chain is
    // built (joins find existing left tokens lazily; negative nodes do
    // not).
    NegativeNode* leading_negative = nullptr;

    for (const auto& cond : rule->conditions()) {
      // Alpha part: constant + intra tests.
      std::vector<AlphaTest> alpha_tests;
      for (const auto& test : cond.constant_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kConstant,
                                        test.field, test.pred, test.value,
                                        0,
                                        {}});
      }
      for (const auto& test : cond.intra_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kIntraField,
                                        test.field, test.pred,
                                        Value::Nil(), test.other_field,
                                        {}});
      }
      for (const auto& test : cond.member_tests) {
        alpha_tests.push_back(AlphaTest{AlphaTest::Kind::kMember,
                                        test.field, TestPredicate::kEq,
                                        Value::Nil(), 0, test.values});
      }
      AlphaMemory* amem =
          GetOrCreateAlphaMemory(cond.relation, std::move(alpha_tests));

      // Beta part: join tests with levels_up computed from the left token
      // (which represents the chain of length `chain_len`) for joins, or
      // from the negative node's own token (length chain_len+1) for
      // negations.
      const size_t left_len = cond.negated ? chain_len + 1 : chain_len;
      std::vector<BetaTest> beta_tests;
      for (const auto& test : cond.join_tests) {
        DBPS_CHECK_LT(test.other_ce, positive_chain_pos.size());
        size_t levels_up = left_len - 1 - positive_chain_pos[test.other_ce];
        beta_tests.push_back(
            BetaTest{test.field, test.pred, levels_up, test.other_field});
      }

      if (cond.negated) {
        auto neg = std::make_unique<NegativeNode>(this, amem,
                                                  std::move(beta_tests));
        NegativeNode* raw = neg.get();
        negative_nodes_.push_back(std::move(neg));
        current->successors.push_back(raw);
        amem->successors.insert(amem->successors.begin(), raw);
        if (current == dummy_bm_) leading_negative = raw;
        current = raw;
        ++chain_len;
      } else {
        auto bm = std::make_unique<BetaMemory>();
        BetaMemory* bm_raw = bm.get();
        beta_memories_.push_back(std::move(bm));
        auto join = std::make_unique<JoinNode>(
            this, current, amem, std::move(beta_tests), bm_raw);
        JoinNode* join_raw = join.get();
        join_nodes_.push_back(std::move(join));
        current->successors.push_back(join_raw);
        amem->successors.insert(amem->successors.begin(), join_raw);
        positive_chain_pos.push_back(chain_len);
        current = bm_raw;
        ++chain_len;
      }
    }

    // Production node: levels from the final token to each positive CE.
    std::vector<size_t> positive_levels;
    positive_levels.reserve(positive_chain_pos.size());
    for (size_t pos : positive_chain_pos) {
      positive_levels.push_back(chain_len - 1 - pos);
    }
    auto pnode = std::make_unique<ProductionNode>(
        rule, conflict_set, std::move(positive_levels));
    current->successors.push_back(pnode.get());
    production_nodes_.push_back(std::move(pnode));

    if (leading_negative != nullptr) {
      leading_negative->OnTokenAdded(dummy_token_);
    }
  }
  return Status::OK();
}

void Network::AddWme(const WmePtr& wme) {
  auto [it, inserted] = wme_infos_.emplace(wme.get(), WmeInfo{wme, {}, {}, {}});
  DBPS_CHECK(inserted) << "WME version added twice: " << wme->ToString();
  auto rel_it = alpha_by_relation_.find(wme->relation());
  if (rel_it == alpha_by_relation_.end()) return;
  for (AlphaMemory* amem : rel_it->second) {
    if (!amem->Matches(*wme)) continue;
    amem->Add(wme);
    it->second.amems.push_back(amem);
    for (AlphaSuccessor* s : amem->successors) s->OnWmeAdded(wme);
  }
}

void Network::RemoveWme(const Wme* wme) {
  auto it = wme_infos_.find(wme);
  if (it == wme_infos_.end()) return;  // never matched anything

  // (1) Make the WME invisible to all joins/negations first, so token
  //     reactivations below cannot re-match it.
  for (AlphaMemory* amem : it->second.amems) amem->Remove(wme);

  // (2) Kill every token built on this WME (and their subtrees).
  while (!it->second.tokens.empty()) {
    DeleteToken(it->second.tokens.back());
  }

  // (3) Unblock negative tokens this WME was blocking. The token list is
  //     re-read because step 2 may have cleaned some results already.
  while (!it->second.neg_results.empty()) {
    NegJoinResult* result = it->second.neg_results.back();
    it->second.neg_results.pop_back();
    Token* owner = result->owner;
    Unlink(&owner->join_results, result, &NegJoinResult::owner_pos);
    delete result;
    if (owner->join_results.empty()) {
      static_cast<NegativeNode*>(owner->holder)->Reactivate(owner);
    }
  }

  wme_infos_.erase(it);
}

ReteMatcher::Stats Network::GetStats() const {
  ReteMatcher::Stats stats;
  stats.alpha_memories = alpha_memories_.size();
  stats.beta_memories = beta_memories_.size();
  stats.join_nodes = join_nodes_.size();
  stats.negative_nodes = negative_nodes_.size();
  stats.production_nodes = production_nodes_.size();
  for (const auto& bm : beta_memories_) stats.tokens += bm->tokens.size();
  for (const auto& neg : negative_nodes_) stats.tokens += neg->tokens.size();
  stats.wmes = wme_infos_.size();
  stats.join_candidates = join_candidates_;
  return stats;
}

std::string Network::ToDot() const {
  std::ostringstream out;
  out << "digraph rete {\n  rankdir=TB;\n";
  std::unordered_map<const void*, std::string> names;
  auto name_of = [&](const void* node, const std::string& prefix) {
    auto it = names.find(node);
    if (it != names.end()) return it->second;
    std::string name = prefix + std::to_string(names.size());
    names.emplace(node, name);
    return name;
  };
  for (const auto& amem : alpha_memories_) {
    std::string name = name_of(amem.get(), "alpha");
    out << "  " << name << " [shape=box,label=\"alpha "
        << SymName(amem->relation) << " (" << amem->tests.size()
        << " tests)\"];\n";
    for (const AlphaSuccessor* s : amem->successors) {
      out << "  " << name << " -> " << name_of(s, "n")
          << " [style=dashed];\n";
    }
  }
  for (const auto& bm : beta_memories_) {
    out << "  " << name_of(bm.get(), "n")
        << " [shape=ellipse,label=\"beta\"];\n";
    for (const Successor* s : bm->successors) {
      out << "  " << name_of(bm.get(), "n") << " -> " << name_of(s, "n")
          << ";\n";
    }
  }
  for (const auto& join : join_nodes_) {
    out << "  " << name_of(join.get(), "n")
        << " [shape=diamond,label=\"join\"];\n";
    out << "  " << name_of(join.get(), "n") << " -> "
        << name_of(join->child(), "n") << ";\n";
  }
  for (const auto& neg : negative_nodes_) {
    out << "  " << name_of(neg.get(), "n")
        << " [shape=diamond,label=\"neg\"];\n";
    for (const Successor* s : neg->successors) {
      out << "  " << name_of(neg.get(), "n") << " -> " << name_of(s, "n")
          << ";\n";
    }
  }
  for (const auto& pnode : production_nodes_) {
    out << "  " << name_of(pnode.get(), "n")
        << " [shape=doublecircle,label=\"prod\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace rete

ReteMatcher::ReteMatcher() : network_(std::make_unique<rete::Network>()) {}
ReteMatcher::~ReteMatcher() = default;

Status ReteMatcher::Initialize(RuleSetPtr rules, const WorkingMemory& wm) {
  DBPS_RETURN_NOT_OK(network_->Build(std::move(rules), &conflict_set_));
  for (SymbolId relation : wm.catalog().relation_names()) {
    for (const WmePtr& wme : wm.Scan(relation)) {
      network_->AddWme(wme);
    }
  }
  return Status::OK();
}

void ReteMatcher::ApplyChange(const WmChange& change) {
  for (const WmePtr& wme : change.removed) network_->RemoveWme(wme.get());
  for (const WmePtr& wme : change.added) network_->AddWme(wme);
}

void ReteMatcher::ApplyChanges(const std::vector<WmChange>& changes) {
  // One pass: every removal leaves the network before any addition joins,
  // so an added WME never pairs with a dying version from a sibling
  // change. Sound because batch members are pairwise disjoint (no change
  // removes a version another adds); within one change the removed/added
  // pairing of a modify is preserved as in ApplyChange.
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.removed) network_->RemoveWme(wme.get());
  }
  for (const WmChange& change : changes) {
    for (const WmePtr& wme : change.added) network_->AddWme(wme);
  }
}

ReteMatcher::Stats ReteMatcher::GetStats() const {
  return network_->GetStats();
}

std::string ReteMatcher::ToDot() const { return network_->ToDot(); }

const char* MatcherKindToString(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kRete:
      return "rete";
    case MatcherKind::kNaive:
      return "naive";
    case MatcherKind::kTreat:
      return "treat";
  }
  return "?";
}

std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kRete:
      return std::make_unique<ReteMatcher>();
    case MatcherKind::kNaive:
      return std::make_unique<NaiveMatcher>();
    case MatcherKind::kTreat:
      return std::make_unique<TreatMatcher>();
  }
  return nullptr;
}

}  // namespace dbps
