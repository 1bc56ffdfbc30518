#include "exp/scoring.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <map>
#include <utility>

#include "util/vec2.h"

namespace tibfit::exp::detail {

void DecisionWindows::sort(const std::vector<double>& keys) {
    order_.resize(keys.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&keys](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    sorted_keys_.reserve(order_.size());
    for (const std::size_t d : order_) sorted_keys_.push_back(keys[d]);
}

std::span<const std::size_t> DecisionWindows::within(double t, double window) const {
    // A candidate has 0 <= key - t <= window. The offset is monotone in
    // key, so both bounds are partition points of the sorted keys.
    const auto begin = sorted_keys_.begin();
    const auto first = std::partition_point(begin, sorted_keys_.end(),
                                            [t](double key) { return key - t < 0.0; });
    const auto last = std::partition_point(
        first, sorted_keys_.end(), [t, window](double key) { return key - t <= window; });
    return {order_.data() + (first - begin), static_cast<std::size_t>(last - first)};
}

BinaryScore score_binary(const std::vector<sensor::GeneratedEvent>& history,
                         const std::vector<cluster::DecisionRecord>& decisions, double window) {
    BinaryScore score;
    const DecisionWindows windows(decisions,
                                  [](const cluster::DecisionRecord& d) { return d.window_opened; });
    std::vector<bool> claimed(decisions.size(), false);
    for (const auto& ev : history) {
        // The lowest index, not the earliest window: events claim greedily
        // in log order, which is what keeps ties exact.
        std::size_t pick = decisions.size();
        for (const std::size_t d : windows.within(ev.time, window)) {
            if (!claimed[d] && d < pick) pick = d;
        }
        if (pick == decisions.size()) continue;
        claimed[pick] = true;
        if (decisions[pick].event_declared) ++score.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (claimed[d]) continue;
        ++score.false_alarm_windows;  // a window no real event explains
        if (decisions[d].event_declared) ++score.phantoms_declared;
    }
    return score;
}

LocationScore score_location(const std::vector<sensor::GeneratedEvent>& history,
                             const std::vector<cluster::DecisionRecord>& decisions,
                             double window, double r_error, std::size_t epoch_events) {
    LocationScore score;
    const DecisionWindows windows(decisions,
                                  [](const cluster::DecisionRecord& d) { return d.time; });
    std::vector<bool> explained(decisions.size(), false);
    std::vector<bool> event_detected(history.size(), false);
    for (std::size_t e = 0; e < history.size(); ++e) {
        const auto& ev = history[e];
        for (const std::size_t d : windows.within(ev.time, window)) {
            const auto& dec = decisions[d];
            if (!dec.has_location) continue;
            if (util::distance(dec.location, ev.location) > r_error) continue;
            explained[d] = true;
            if (dec.event_declared) event_detected[e] = true;
        }
        if (event_detected[e]) ++score.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (!explained[d] && decisions[d].event_declared) ++score.false_positives;
    }

    // Per-epoch accuracy series (events are ordered by generation time).
    if (epoch_events > 0) {
        std::size_t i = 0;
        while (i < event_detected.size()) {
            const std::size_t end = std::min(i + epoch_events, event_detected.size());
            std::size_t hits = 0;
            for (std::size_t j = i; j < end; ++j) hits += event_detected[j] ? 1 : 0;
            score.epoch_accuracy.push_back(static_cast<double>(hits) /
                                           static_cast<double>(end - i));
            i = end;
        }
    }
    return score;
}

void apply_station_verdicts(std::vector<cluster::DecisionRecord>& decisions,
                            const std::vector<cluster::FinalDecision>& finals) {
    // Every CH numbers its decisions from 0, so a verdict names its CH too.
    std::map<std::pair<sim::ProcessId, std::uint64_t>, bool> verdict;
    for (const auto& f : finals) {
        verdict.emplace(std::pair{f.ch, f.seq}, f.event_declared);  // first one wins
    }
    for (auto& d : decisions) {
        if (const auto it = verdict.find({d.ch, d.seq}); it != verdict.end()) {
            d.event_declared = it->second;
        }
    }
}

}  // namespace tibfit::exp::detail
