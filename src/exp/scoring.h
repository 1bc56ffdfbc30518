// exp::detail scoring — matching a run's decision log to its ground truth.
//
// Both runners score by time windows: an event explains a decision whose
// time key lies in [0, window] after it. Scanning the whole log for every
// event costs events x decisions, which dominates long binary runs, so the
// log is ordered by its key once and each event looks up its window's
// contiguous run of candidates. The run is exact: the per-event offset
// `key - event.time` is a rounded subtraction, which is monotone in `key`,
// so the decisions it admits are contiguous in key order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "sensor/event_generator.h"

namespace tibfit::exp::detail {

/// A decision log's indices ordered by a time key (ties by index).
class DecisionWindows {
  public:
    /// `key(d)` is the time each decision is matched on.
    template <typename Key>
    DecisionWindows(const std::vector<cluster::DecisionRecord>& decisions, Key key) {
        std::vector<double> keys;
        keys.reserve(decisions.size());
        for (const auto& d : decisions) keys.push_back(key(d));
        sort(keys);
    }

    /// Indices of every decision whose `key - t` lies in [0, window], in
    /// key order.
    std::span<const std::size_t> within(double t, double window) const;

  private:
    void sort(const std::vector<double>& keys);

    std::vector<std::size_t> order_;   ///< decision indices in key order
    std::vector<double> sorted_keys_;  ///< the keys in that order
};

/// Binary scoring: each event claims the lowest-index unclaimed decision
/// whose window opened within `window` after it; unclaimed decisions are
/// false-alarm windows.
struct BinaryScore {
    std::size_t detected = 0;             ///< events whose claimed decision declared
    std::size_t false_alarm_windows = 0;  ///< decisions no event claimed
    std::size_t phantoms_declared = 0;    ///< ... of which declared an event
};
BinaryScore score_binary(const std::vector<sensor::GeneratedEvent>& history,
                         const std::vector<cluster::DecisionRecord>& decisions, double window);

/// Location scoring: a located decision made within `window` after an
/// event and within `r_error` of it explains the event (every such pair
/// counts); a declared decision no event explains is a false positive.
struct LocationScore {
    std::size_t detected = 0;
    std::size_t false_positives = 0;
    /// Detected fraction per consecutive block of `epoch_events` events
    /// (empty when epoch_events is 0).
    std::vector<double> epoch_accuracy;
};
LocationScore score_location(const std::vector<sensor::GeneratedEvent>& history,
                             const std::vector<cluster::DecisionRecord>& decisions,
                             double window, double r_error, std::size_t epoch_events);

/// Overrides each decision's verdict with the base station's final
/// decision of the same (CH, seq) (the first one, if the station holds
/// several).
void apply_station_verdicts(std::vector<cluster::DecisionRecord>& decisions,
                            const std::vector<cluster::FinalDecision>& finals);

}  // namespace tibfit::exp::detail
