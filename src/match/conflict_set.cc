#include "match/conflict_set.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dbps {

void ConflictSet::Activate(InstPtr inst) {
  DBPS_CHECK(inst != nullptr);
  InstKey key = inst->key();
  std::lock_guard<std::mutex> lock(mu_);
  active_.emplace(std::move(key), Entry{std::move(inst), next_seq_++});
}

void ConflictSet::Deactivate(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(key);
  claimed_.erase(key);
}

InstPtr ConflictSet::Find(const InstKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(key);
  return it == active_.end() ? nullptr : it->second.inst;
}

InstPtr ConflictSet::Claim(ConflictResolution strategy, Random* rng) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Candidate> candidates;
  candidates.reserve(active_.size());
  for (const auto& [key, entry] : active_) {
    if (claimed_.count(key) == 0) {
      candidates.push_back(Candidate{&entry.inst, entry.activation_seq});
    }
  }
  const InstPtr* selected = SelectDominant(candidates, strategy, rng);
  if (selected == nullptr) return nullptr;
  claimed_.insert((*selected)->key());
  return *selected;
}

void ConflictSet::Unclaim(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  claimed_.erase(key);
}

void ConflictSet::MarkFired(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(key);
  claimed_.erase(key);
}

std::vector<InstPtr> ConflictSet::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InstPtr> out;
  out.reserve(active_.size());
  for (const auto& [key, entry] : active_) out.push_back(entry.inst);
  return out;
}

std::vector<InstPtr> ConflictSet::SelectableSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InstPtr> out;
  out.reserve(active_.size());
  for (const auto& [key, entry] : active_) {
    if (claimed_.count(key) == 0) out.push_back(entry.inst);
  }
  return out;
}

std::string ConflictSet::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "conflict set (" << active_.size() << "):";
  for (const auto& [key, entry] : active_) {
    out << "\n  " << entry.inst->ToString();
    if (claimed_.count(key) != 0) out << " [claimed]";
  }
  return out.str();
}

std::string ConflictSet::CanonicalDump() const {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lines.reserve(active_.size());
    for (const auto& [key, entry] : active_) {
      lines.push_back(entry.inst->ToString());
    }
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const std::string& line : lines) out << line << "\n";
  return out.str();
}

}  // namespace dbps
