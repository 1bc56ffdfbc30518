// Section 3.1 — binary event arbitration.
//
// After T_out from the first report, the cluster head partitions the event
// neighbours into R (reported) and NR (silent), sums each side's trust
// indices, and the side with the higher cumulative trust index (CTI) wins.
// Winners' trust rises, losers' falls. The stateless baseline of Section 4
// is the same vote with every weight pinned at 1 (simple majority).
#pragma once

#include <span>
#include <vector>

#include "core/node_marks.h"
#include "core/trust.h"

namespace tibfit::core {

/// Which aggregation the cluster head runs.
enum class DecisionPolicy {
    TrustIndex,    ///< TIBFIT: weight each node by its TI, update trust.
    MajorityVote,  ///< Baseline: weight each node 1, no state.
};

/// Outcome of one binary event decision.
struct BinaryDecision {
    bool event_declared = false;
    double weight_reporters = 0.0;  ///< CTI of R (or |R| under the baseline).
    double weight_silent = 0.0;     ///< CTI of NR (or |NR|).
    std::vector<NodeId> reporters;  ///< R after isolation filtering.
    std::vector<NodeId> silent;     ///< NR after isolation filtering.
};

/// Function object bound to a trust table and policy. Its only state is
/// decide()'s reusable scratch, so a decision depends on its inputs alone.
class BinaryArbiter {
  public:
    /// The arbiter holds a reference to the CH's trust table; the caller
    /// must keep it alive for the arbiter's lifetime.
    BinaryArbiter(TrustManager& trust, DecisionPolicy policy)
        : trust_(&trust), policy_(policy) {}

    DecisionPolicy policy() const { return policy_; }

    /// Runs one decision. `event_neighbours` is every node expected to have
    /// sensed the event; `reporters` the subset that reported within T_out.
    /// Nodes diagnosed as faulty (TI below the removal threshold) are
    /// excluded from both sides under the TrustIndex policy. Ties go to the
    /// reporting side (an event is declared — see DESIGN.md §5.1).
    ///
    /// When `apply_trust_updates` is true and the policy is TrustIndex, the
    /// winning side is judged correct and the losing side faulty.
    BinaryDecision decide(std::span<const NodeId> event_neighbours,
                          std::span<const NodeId> reporters,
                          bool apply_trust_updates = true);

  private:
    TrustManager* trust_;
    DecisionPolicy policy_;
    NodeMarks reported_;  ///< decide()'s scratch: the reporters among the neighbours
};

}  // namespace tibfit::core
