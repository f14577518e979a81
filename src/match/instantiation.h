// Instantiations: one satisfied LHS = (rule, matched WME versions).

#ifndef DBPS_MATCH_INSTANTIATION_H_
#define DBPS_MATCH_INSTANTIATION_H_

#include <memory>
#include <string>
#include <vector>

#include "rules/rule.h"
#include "util/hash.h"
#include "wm/wme.h"

namespace dbps {

/// \brief Identity of an instantiation: the rule plus the exact WME
/// *versions* (id, time tag) matched by its positive condition elements,
/// in CE order. Two matches of the same rule against the same versions are
/// the same instantiation (OPS5 refraction works on this identity).
struct InstKey {
  std::string rule_name;
  std::vector<std::pair<WmeId, TimeTag>> wmes;

  bool operator==(const InstKey& other) const {
    return rule_name == other.rule_name && wmes == other.wmes;
  }
  std::string ToString() const;
};

struct InstKeyHash {
  size_t operator()(const InstKey& key) const {
    size_t seed = std::hash<std::string>{}(key.rule_name);
    for (const auto& [id, tag] : key.wmes) {
      HashCombine(&seed, id);
      HashCombine(&seed, tag);
    }
    return seed;
  }
};

/// \brief A satisfied production: rule + matched WMEs (one per positive CE).
class Instantiation {
 public:
  Instantiation(RulePtr rule, std::vector<WmePtr> matched);

  const RulePtr& rule() const { return rule_; }
  const std::vector<WmePtr>& matched() const { return matched_; }
  const InstKey& key() const { return key_; }

  /// Time tags of the matched WMEs, sorted descending: LEX's recency
  /// key, computed once here so conflict resolution never re-sorts.
  const std::vector<TimeTag>& recency_tags() const { return recency_tags_; }

  /// Largest time tag among matched WMEs (recency, for LEX/MEA).
  TimeTag RecencyTag() const {
    return recency_tags_.empty() ? 0 : recency_tags_.front();
  }

  std::string ToString() const;

 private:
  RulePtr rule_;
  std::vector<WmePtr> matched_;
  InstKey key_;
  std::vector<TimeTag> recency_tags_;
};

using InstPtr = std::shared_ptr<const Instantiation>;

}  // namespace dbps

#endif  // DBPS_MATCH_INSTANTIATION_H_
