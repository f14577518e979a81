#include "match/conflict_set.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace dbps {

bool ConflictSet::DominanceOrder::operator()(const Entry* a,
                                             const Entry* b) const {
  int order = CompareDominance(strategy, Candidate{&a->inst, a->activation_seq},
                               Candidate{&b->inst, b->activation_seq});
  if (order != 0) return order > 0;
  // Distinct keys never tie; the seq keeps the index a strict order
  // even if two key texts ever coincided.
  return a->activation_seq < b->activation_seq;
}

namespace {

bool Reads(const Instantiation& inst, WmeId id) {
  for (const WmePtr& wme : inst.matched()) {
    if (wme->id() == id) return true;
  }
  return false;
}

/// Does `a` write a WME that `b` reads?
bool WritesWhatReads(const Instantiation& a, const Instantiation& b) {
  for (size_t ce : a.rule()->written_ces()) {
    if (Reads(b, a.matched()[ce]->id())) return true;
  }
  return false;
}

}  // namespace

void ConflictSet::Activate(InstPtr inst) {
  DBPS_CHECK(inst != nullptr);
  InstKey key = inst->key();
  std::lock_guard<std::mutex> lock(mu_);
  // Re-activated while an earlier claim on the same key is still in
  // flight (a negated CE blocked, then unblocked): it stays claimed.
  bool claimed = false;
  for (const InstPtr& claim : claims_) claimed |= claim->key() == key;
  auto [it, inserted] = active_.try_emplace(
      std::move(key),
      Entry{std::move(inst), next_seq_, claimed, {}});
  if (!inserted) return;
  ++next_seq_;
  if (!claimed) InsertSelectableLocked(&it->second);
}

void ConflictSet::InsertSelectableLocked(Entry* entry) {
  ++num_selectable_;
  if (!indexed_) return;
  // New activations are usually the most recent, i.e. dominant: hinting
  // the front makes their insert O(1) when that holds.
  entry->pos = selectable_.insert(selectable_.begin(), entry);
}

void ConflictSet::RemoveSelectableLocked(Entry* entry) {
  --num_selectable_;
  if (indexed_) selectable_.erase(entry->pos);
}

void ConflictSet::Deactivate(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  EraseLocked(key);
}

void ConflictSet::EraseLocked(const InstKey& key) {
  auto it = active_.find(key);
  if (it == active_.end()) return;
  if (!it->second.claimed) RemoveSelectableLocked(&it->second);
  active_.erase(it);
}

bool ConflictSet::EndClaimLocked(const InstKey& key) {
  for (auto it = claims_.begin(); it != claims_.end(); ++it) {
    if ((*it)->key() == key) {
      claims_.erase(it);
      return true;
    }
  }
  return false;
}

InstPtr ConflictSet::Find(const InstKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(key);
  return it == active_.end() ? nullptr : it->second.inst;
}

void ConflictSet::IndexLocked(ConflictResolution strategy) {
  Index index{DominanceOrder{strategy}};
  for (auto& [key, entry] : active_) {
    if (!entry.claimed) entry.pos = index.insert(&entry).first;
  }
  selectable_.swap(index);
  indexed_ = true;
}

bool ConflictSet::InterferesLocked(const Instantiation& inst) const {
  for (const InstPtr& claim : claims_) {
    if (WritesWhatReads(*claim, inst) || WritesWhatReads(inst, *claim)) {
      return true;
    }
  }
  return false;
}

InstPtr ConflictSet::Claim(ConflictResolution strategy, Random* rng) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* chosen = nullptr;
  if (strategy == ConflictResolution::kRandom) {
    // No order to index: a uniform pick over the eligible candidates, in
    // active_'s (deterministic) iteration order.
    std::vector<Candidate> candidates;
    for (const auto& [key, entry] : active_) {
      if (entry.claimed || InterferesLocked(*entry.inst)) continue;
      candidates.push_back(Candidate{&entry.inst, entry.activation_seq});
    }
    const InstPtr* selected = SelectDominant(candidates, strategy, rng);
    if (selected == nullptr) return nullptr;
    chosen = &active_.find((*selected)->key())->second;
  } else {
    if (!indexed_ || selectable_.key_comp().strategy != strategy) {
      IndexLocked(strategy);
    }
    auto it = selectable_.begin();
    while (it != selectable_.end() && InterferesLocked(*(*it)->inst)) ++it;
    if (it == selectable_.end()) return nullptr;
    chosen = *it;
  }
  RemoveSelectableLocked(chosen);
  chosen->claimed = true;
  claims_.push_back(chosen->inst);
  return chosen->inst;
}

void ConflictSet::Unclaim(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!EndClaimLocked(key)) return;
  auto it = active_.find(key);
  if (it == active_.end()) return;
  it->second.claimed = false;
  InsertSelectableLocked(&it->second);
}

void ConflictSet::MarkFired(const InstKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  EndClaimLocked(key);
  EraseLocked(key);
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
    if (!entry.claimed) out.push_back(entry.inst);
  }
  return out;
}

std::string ConflictSet::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "conflict set (" << active_.size() << "):";
  for (const auto& [key, entry] : active_) {
    out << "\n  " << entry.inst->ToString();
    if (entry.claimed) out << " [claimed]";
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
