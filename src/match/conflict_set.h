// The conflict set (the paper's "set of active productions", PA).
//
// Holds the currently satisfied instantiations. Supports the parallel
// engines' claim/unclaim protocol: a claimed instantiation is being
// executed by some worker and is not selectable, but remains subject to
// deactivation if a committing writer invalidates it.
//
// Claims are ordered and interference-aware (DESIGN.md §4.1):
//
//  * The unclaimed instantiations sit in an index ordered by the claim
//    strategy's dominance (CompareDominance), its key computed once at
//    Activate. Claim takes the first eligible entry instead of scanning
//    and comparing the whole set, and picks exactly what SelectDominant
//    would over the same candidates. kRandom picks uniformly over the
//    eligible candidates sorted by key text.
//  * Every claim registers its tuple-level footprint: the WMEs the
//    instantiation matched (reads) and those its RHS modifies or removes
//    (writes). Claim skips a candidate that reads a WME an in-flight
//    claim writes, or writes one an in-flight claim reads: the in-flight
//    firing would doom it (an Rc–Wa victim, or a stale match), and the
//    paper's §3.2 lets the engine fire any active instantiation. With no
//    claim in flight nothing is skipped, so serial engines see the plain
//    dominance order.
//  * A claim lasts until its claimant ends it with Unclaim or MarkFired,
//    even if a commit deactivates the instantiation meanwhile: the
//    claimant still runs and still holds its locks, so its footprint
//    must keep steering other claims away until it lets go.
//
// Thread-safe: every operation takes an internal mutex, so workers can
// claim/validate concurrently with the committer's matcher propagation
// without any engine-wide lock. Compound read-modify sequences (e.g.
// "Contains then Claim") are NOT atomic across calls; engines that need
// a stable answer must tolerate the race (a stale claim is detected at
// commit validation).

#ifndef DBPS_MATCH_CONFLICT_SET_H_
#define DBPS_MATCH_CONFLICT_SET_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/conflict_resolution.h"
#include "match/instantiation.h"

namespace dbps {

/// \brief The set of active (satisfied) instantiations.
class ConflictSet {
 public:
  /// Activates an instantiation (match phase found it satisfied).
  /// Re-activating an already-active key is a no-op.
  void Activate(InstPtr inst);

  /// Starts a matcher propagation: every instantiation activated until
  /// the next call shares one activation number, later than all earlier
  /// ones. kFifo picks the oldest propagation first and breaks ties
  /// within it by key text, so the order in which one propagation
  /// activates its instantiations (it follows the matcher's
  /// pointer-keyed containers, i.e. the heap layout) never shows.
  void BeginPropagation();

  /// Deactivates (LHS no longer satisfied). No-op if absent. A claim on
  /// `key` stays in flight until its claimant ends it.
  void Deactivate(const InstKey& key);

  bool Contains(const InstKey& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.count(key) != 0;
  }

  /// The active instantiation for `key`, or nullptr. Returned by value:
  /// a pointer into the set would dangle under concurrent deactivation.
  InstPtr Find(const InstKey& key) const;

  /// Selects the dominant unclaimed instantiation under `strategy` that
  /// does not interfere with an in-flight claim, marks it claimed and
  /// registers its footprint. Returns nullptr if none is selectable.
  InstPtr Claim(ConflictResolution strategy, Random* rng);

  /// Ends the claim on `key`: drops its footprint and, if an
  /// instantiation is active under `key`, makes it selectable again. The
  /// parallel engine ends every claim so, once the firing released its
  /// locks: after an abort the entry is the one it claimed; after a
  /// commit (whose head Deactivated the fired entry) it can only be a
  /// re-activation.
  void Unclaim(const InstKey& key);

  /// Marks an instantiation as fired: ends any claim on it and removes
  /// it entirely. Refraction needs nothing more: the matchers never
  /// re-derive an instantiation whose matched versions are unchanged.
  void MarkFired(const InstKey& key);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size();
  }
  /// Claims in flight (including those whose instantiation a commit has
  /// deactivated since).
  size_t num_claimed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return claims_.size();
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.empty();
  }

  /// True iff at least one active instantiation is unclaimed.
  bool HasSelectable() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_selectable_ > 0;
  }

  /// Snapshot of all active instantiations (unspecified order).
  std::vector<InstPtr> Snapshot() const;

  /// The selectable (unclaimed) instantiations, dominant first under
  /// `strategy`: the order successive Claims would take them with no
  /// claim in flight. kRandom shuffles them (sorted by key text first)
  /// with `rng`, which only kRandom consults.
  std::vector<InstPtr> SelectableInOrder(ConflictResolution strategy,
                                         Random* rng) const;

  std::string ToString() const;

  /// Canonical dump: every active instantiation's ToString(), sorted,
  /// one per line — byte-comparable across matcher implementations
  /// regardless of hash-map iteration order. Claim state is deliberately
  /// excluded (claims belong to the engine, not the match phase).
  std::string CanonicalDump() const;

 private:
  struct Entry;
  /// Dominant-first order of the selectable index under `strategy`.
  struct DominanceOrder {
    ConflictResolution strategy;
    bool operator()(const Entry* a, const Entry* b) const;
  };
  using Index = std::set<Entry*, DominanceOrder>;
  struct Entry {
    InstPtr inst;
    uint64_t activation_seq;  ///< the propagation that activated it
    bool claimed = false;  ///< a claim on this key is in flight
    Index::iterator pos;   ///< its place in selectable_ while unclaimed
  };

  /// Removes the entry for `key`, if active. Requires mu_.
  void EraseLocked(const InstKey& key);
  /// Ends the claim on `key`, if any; true iff there was one. Requires mu_.
  bool EndClaimLocked(const InstKey& key);
  /// Makes `entry` selectable / no longer selectable. Require mu_.
  void InsertSelectableLocked(Entry* entry);
  void RemoveSelectableLocked(Entry* entry);
  /// (Re)builds the selectable index for `strategy`. Requires mu_.
  void IndexLocked(ConflictResolution strategy);
  /// Would claiming `inst` read what an in-flight claim writes, or write
  /// what one reads? Requires mu_.
  bool InterferesLocked(const Instantiation& inst) const;
  /// The unclaimed instantiations sorted by key text, without those that
  /// interfere with a claim in flight if `skip_interfering`. kRandom
  /// draws from this list, never from active_'s iteration order (which
  /// follows the matcher's pointer-keyed containers). Requires mu_.
  std::vector<InstPtr> UnclaimedByKeyTextLocked(bool skip_interfering) const;

  mutable std::mutex mu_;
  std::unordered_map<InstKey, Entry, InstKeyHash> active_;
  /// The unclaimed entries of active_, dominant first, in the order of
  /// the latest ordered Claim's strategy. Built by the first ordered
  /// Claim (indexed_): a set that never claims that way — the replay
  /// validator's, the static-partition engine's — never pays for it.
  Index selectable_{DominanceOrder{ConflictResolution::kPriority}};
  bool indexed_ = false;
  size_t num_selectable_ = 0;  ///< unclaimed entries of active_
  /// Claims in flight; each one's footprint is its instantiation's
  /// matched and written WMEs. A claim can outlive its active_ entry.
  /// At most one per engine worker, so a flat vector scans fastest.
  std::vector<InstPtr> claims_;
  uint64_t propagation_ = 0;  ///< BeginPropagation calls so far
};

}  // namespace dbps

#endif  // DBPS_MATCH_CONFLICT_SET_H_
