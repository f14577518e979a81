#include "match/instantiation.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "util/logging.h"

namespace dbps {

std::string InstKey::ToString() const {
  std::string out = rule_name;
  out += '[';
  bool first = true;
  for (const auto& [id, tag] : wmes) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(id);
    out += '@';
    out += std::to_string(tag);
  }
  out += ']';
  return out;
}

Instantiation::Instantiation(RulePtr rule, std::vector<WmePtr> matched)
    : rule_(std::move(rule)), matched_(std::move(matched)) {
  DBPS_CHECK_EQ(matched_.size(), rule_->num_positive());
  key_.rule_name = rule_->name();
  key_.wmes.reserve(matched_.size());
  recency_tags_.reserve(matched_.size());
  for (const auto& wme : matched_) {
    key_.wmes.emplace_back(wme->id(), wme->tag());
    recency_tags_.push_back(wme->tag());
  }
  std::sort(recency_tags_.begin(), recency_tags_.end(),
            std::greater<TimeTag>());
}

std::string Instantiation::ToString() const {
  std::ostringstream out;
  out << rule_->name() << " {";
  bool first = true;
  for (const auto& wme : matched_) {
    if (!first) out << ", ";
    first = false;
    out << wme->ToString();
  }
  out << "}";
  return out.str();
}

}  // namespace dbps
