// Matcher: the match phase's interface.
//
// A matcher owns the conflict set and keeps it consistent with working
// memory: Initialize() processes the initial WM contents; ApplyChange()
// incrementally processes the removed/added WME versions of one committed
// Delta. Two implementations exist — the Rete network (production
// implementation) and the naive rematcher (correctness oracle).

#ifndef DBPS_MATCH_MATCHER_H_
#define DBPS_MATCH_MATCHER_H_

#include <memory>
#include <vector>

#include "match/conflict_set.h"
#include "rules/rule.h"
#include "util/status.h"
#include "wm/working_memory.h"

namespace dbps {

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Compiles `rules` into matcher state and matches the current contents
  /// of `wm`. Must be called exactly once, before any ApplyChange.
  virtual Status Initialize(RuleSetPtr rules, const WorkingMemory& wm) = 0;

  /// Processes one committed change: `change.removed` WME versions leave,
  /// `change.added` versions enter. Updates the conflict set.
  virtual void ApplyChange(const WmChange& change) = 0;

  /// Processes a batch of committed changes as one propagation pass.
  /// Equivalent to calling ApplyChange element-by-element in order
  /// *provided the changes are pairwise disjoint* — no change removes a
  /// WME version another change in the batch adds (the commit sequencer's
  /// batch-eligibility check guarantees exactly this). Implementations
  /// may reorder work across the batch (e.g. all removals before all
  /// additions, or a single recompute) to amortize propagation.
  virtual void ApplyChanges(const std::vector<WmChange>& changes) {
    for (const WmChange& change : changes) ApplyChange(change);
  }

  ConflictSet& conflict_set() { return conflict_set_; }
  const ConflictSet& conflict_set() const { return conflict_set_; }

 protected:
  ConflictSet conflict_set_;
};

enum class MatcherKind : uint8_t { kRete, kNaive, kTreat };

const char* MatcherKindToString(MatcherKind kind);

/// Factory.
std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind);

}  // namespace dbps

#endif  // DBPS_MATCH_MATCHER_H_
