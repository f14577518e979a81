#include "match/conflict_resolution.h"

#include <algorithm>

#include "util/logging.h"

namespace dbps {

const char* ConflictResolutionToString(ConflictResolution strategy) {
  switch (strategy) {
    case ConflictResolution::kPriority:
      return "priority";
    case ConflictResolution::kLex:
      return "lex";
    case ConflictResolution::kMea:
      return "mea";
    case ConflictResolution::kFifo:
      return "fifo";
    case ConflictResolution::kRandom:
      return "random";
  }
  return "?";
}

namespace {

/// -1 / 0 / +1 lexicographic comparison of descending tag lists.
int CompareTagsDesc(const std::vector<TimeTag>& a,
                    const std::vector<TimeTag>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  }
  if (a.size() != b.size()) return a.size() > b.size() ? 1 : -1;
  return 0;
}

/// The deterministic final tie-break: the lower key text wins.
int CompareKeyText(const Instantiation& a, const Instantiation& b) {
  std::string key_a = a.key().ToString();
  std::string key_b = b.key().ToString();
  if (key_a != key_b) return key_a < key_b ? 1 : -1;
  return 0;
}

/// LEX: recency of the sorted time tags, then specificity, then the key
/// text. The key texts are built only when everything before them ties.
int LexCompare(const Instantiation& a, const Instantiation& b) {
  int recency = CompareTagsDesc(a.recency_tags(), b.recency_tags());
  if (recency != 0) return recency;
  size_t spec_a = a.rule()->specificity();
  size_t spec_b = b.rule()->specificity();
  if (spec_a != spec_b) return spec_a > spec_b ? 1 : -1;
  return CompareKeyText(a, b);
}

/// MEA: the time tag of the WME matching the *first* CE dominates.
TimeTag FirstTag(const Instantiation& inst) {
  return inst.matched().empty() ? 0 : inst.matched()[0]->tag();
}

}  // namespace

int CompareDominance(ConflictResolution strategy, const Candidate& a,
                     const Candidate& b) {
  const Instantiation& ia = **a.inst;
  const Instantiation& ib = **b.inst;
  switch (strategy) {
    case ConflictResolution::kFifo:
      // One propagation's activations share a seq; the matcher's order
      // among them follows pointer-keyed containers, so the key text
      // decides instead.
      if (a.activation_seq != b.activation_seq) {
        return a.activation_seq < b.activation_seq ? 1 : -1;
      }
      return CompareKeyText(ia, ib);
    case ConflictResolution::kMea: {
      TimeTag first_a = FirstTag(ia);
      TimeTag first_b = FirstTag(ib);
      if (first_a != first_b) return first_a > first_b ? 1 : -1;
      break;
    }
    case ConflictResolution::kPriority: {
      int prio_a = ia.rule()->priority();
      int prio_b = ib.rule()->priority();
      if (prio_a != prio_b) return prio_a > prio_b ? 1 : -1;
      break;
    }
    case ConflictResolution::kLex:
      break;
    case ConflictResolution::kRandom:
      DBPS_CHECK(false) << "kRandom has no dominance order";
  }
  return LexCompare(ia, ib);
}

const InstPtr* SelectDominant(const std::vector<Candidate>& candidates,
                              ConflictResolution strategy, Random* rng) {
  if (candidates.empty()) return nullptr;
  if (strategy == ConflictResolution::kRandom) {
    DBPS_CHECK(rng != nullptr);
    return candidates[rng->Uniform(candidates.size())].inst;
  }
  const Candidate* best = &candidates[0];
  for (const auto& c : candidates) {
    if (CompareDominance(strategy, c, *best) > 0) best = &c;
  }
  return best->inst;
}

}  // namespace dbps
