// ReteMatcher: incremental production matching via a Rete network
// [FORG82], in the style of Doorenbos' "Production Matching for Large
// Learning Systems".
//
// Structure
//   * Alpha network: per relation, shared alpha memories holding the WMEs
//     that pass a condition element's constant and intra-WME tests.
//   * Beta network: a left-deep chain per rule. Positive CEs contribute a
//     JoinNode (variable-consistency tests against earlier CEs) feeding a
//     BetaMemory of tokens; negated CEs contribute a NegativeNode that
//     stores tokens with their "blocking" join results and only propagates
//     tokens with zero results. A ProductionNode at the end of each chain
//     maintains the rule's instantiations in the conflict set.
//
// Incrementality: ApplyChange feeds individual WME version removals and
// additions; tokens are created/deleted along the way, so match cost is
// proportional to the change, not to working-memory size.
//
// Hashed memories: a join or negative node with an equality test hashes
// both of its inputs on the first one. The alpha memory buckets its items
// by that field's value and the node buckets its left tokens by the value
// they must match, so an activation visits one bucket instead of a whole
// memory. The choice follows from the rule; a node without an equality
// test scans.

#ifndef DBPS_MATCH_RETE_H_
#define DBPS_MATCH_RETE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "match/matcher.h"

namespace dbps {
namespace rete {
class Network;
}  // namespace rete

class ReteMatcher : public Matcher {
 public:
  ReteMatcher();
  ~ReteMatcher() override;

  Status Initialize(RuleSetPtr rules, const WorkingMemory& wm) override;
  void ApplyChange(const WmChange& change) override;
  void ApplyChanges(const std::vector<WmChange>& changes) override;

  /// Network shape / size counters (for tests and benches).
  struct Stats {
    size_t alpha_memories = 0;
    size_t beta_memories = 0;
    size_t join_nodes = 0;
    size_t negative_nodes = 0;
    size_t production_nodes = 0;
    size_t tokens = 0;
    size_t wmes = 0;
    /// (left token, WME) pairs handed to the join tests since Initialize
    /// — the match work. Hashed memories keep it near the number of real
    /// matches; a scanning node pays for its whole memory per activation.
    size_t join_candidates = 0;
  };
  Stats GetStats() const;

  std::string ToDot() const;  ///< Graphviz dump of the network shape.

 private:
  std::unique_ptr<rete::Network> network_;
};

}  // namespace dbps

#endif  // DBPS_MATCH_RETE_H_
