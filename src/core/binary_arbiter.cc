#include "core/binary_arbiter.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/invariant.h"

namespace tibfit::core {

BinaryDecision BinaryArbiter::decide(std::span<const NodeId> event_neighbours,
                                     std::span<const NodeId> reporters,
                                     bool apply_trust_updates) {
    const bool stateful = policy_ == DecisionPolicy::TrustIndex;

    // Only neighbours are ever looked up, so reporters past the largest
    // neighbour id need no mark.
    std::size_t universe = 0;
    for (NodeId n : event_neighbours) universe = std::max<std::size_t>(universe, n + std::size_t{1});
    reported_.reset(universe);
    for (NodeId n : reporters) {
        if (n < universe) reported_.insert(n);
    }

    // Each list is sized once, to its bound before isolation filtering; a
    // side with no one on it allocates nothing.
    std::size_t reported = 0;
    for (NodeId n : event_neighbours) reported += reported_.contains(n) ? 1 : 0;
    BinaryDecision d;
    d.reporters.reserve(reported);
    d.silent.reserve(event_neighbours.size() - reported);
    for (NodeId n : event_neighbours) {
        if (stateful && trust_->is_isolated(n)) continue;
        const double w = stateful ? trust_->ti(n) : 1.0;
        if (reported_.contains(n)) {
            d.reporters.push_back(n);
            d.weight_reporters += w;
        } else {
            d.silent.push_back(n);
            d.weight_silent += w;
        }
    }
    std::sort(d.reporters.begin(), d.reporters.end());
    std::sort(d.silent.begin(), d.silent.end());

    d.event_declared = d.weight_reporters >= d.weight_silent;

    // CTI conservation: the two-way partition must cover every
    // non-isolated event neighbour exactly once, and CTI(R) + CTI(NR)
    // must equal the CTI of all eligible neighbours (tolerance only for
    // the FP regrouping between one and two accumulators). Evaluated
    // before trust updates mutate the TIs being summed.
    if (util::invariant_checks_on()) {
        double eligible_cti = 0.0;
        std::size_t eligible = 0;
        for (NodeId n : event_neighbours) {
            if (stateful && trust_->is_isolated(n)) continue;
            eligible_cti += stateful ? trust_->ti(n) : 1.0;
            ++eligible;
        }
        TIBFIT_CHECK(d.reporters.size() + d.silent.size() == eligible,
                     "partition covers " + std::to_string(d.reporters.size() + d.silent.size()) +
                         " of " + std::to_string(eligible) + " eligible neighbours");
        const double split = d.weight_reporters + d.weight_silent;
        TIBFIT_CHECK(std::abs(split - eligible_cti) <= 1e-9 * std::max(1.0, eligible_cti),
                     "CTI(R)+CTI(NR)=" + std::to_string(split) + " vs CTI(eligible)=" +
                         std::to_string(eligible_cti));
    }

    if (stateful && apply_trust_updates) {
        const auto& winners = d.event_declared ? d.reporters : d.silent;
        const auto& losers = d.event_declared ? d.silent : d.reporters;
        for (NodeId n : winners) trust_->judge_correct(n);
        for (NodeId n : losers) trust_->judge_faulty(n);
    }
    return d;
}

}  // namespace tibfit::core
