// Conflict-resolution strategies for the select phase.
//
// Per the paper (§3.2), strategies like OPS5's LEX and MEA are heuristics
// that *favor* sequences; they never rule a sequence out, so correctness is
// independent of the strategy chosen. All strategies here are deterministic
// given their inputs (kRandom is deterministic given its PRNG seed).

#ifndef DBPS_MATCH_CONFLICT_RESOLUTION_H_
#define DBPS_MATCH_CONFLICT_RESOLUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "match/instantiation.h"
#include "util/random.h"

namespace dbps {

enum class ConflictResolution : uint8_t {
  kPriority,  ///< rule priority desc, then LEX ordering as tie-break
  kLex,       ///< OPS5 LEX: recency of sorted time tags, then specificity
  kMea,       ///< OPS5 MEA: first-CE recency first, then LEX
  kFifo,      ///< oldest activation first
  kRandom,    ///< uniform over the candidates (seeded)
};

const char* ConflictResolutionToString(ConflictResolution strategy);

/// \brief A candidate with its activation sequence number (for kFifo).
struct Candidate {
  const InstPtr* inst;
  uint64_t activation_seq;
};

/// \brief -1 / 0 / +1: whether `a` is dominated by, ties with, or
/// dominates `b` under `strategy`. Every strategy but kRandom (which has
/// no order; CHECK-fails) is a total order on distinct keys: 0 only for
/// the same key. The one comparison both SelectDominant and the conflict
/// set's ordered index use.
int CompareDominance(ConflictResolution strategy, const Candidate& a,
                     const Candidate& b);

/// \brief Picks the dominant instantiation among `candidates` under
/// `strategy`. Returns nullptr iff candidates is empty. `rng` is only
/// consulted for kRandom.
const InstPtr* SelectDominant(const std::vector<Candidate>& candidates,
                              ConflictResolution strategy, Random* rng);

}  // namespace dbps

#endif  // DBPS_MATCH_CONFLICT_RESOLUTION_H_
