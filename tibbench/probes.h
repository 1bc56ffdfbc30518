// Per-layer probes: public calls into one layer at a time, with inputs
// shaped by a workload's traced counts. Each probe times a fixed amount of
// work (median of several blocks) and reports the shape it actually ran
// at, so the caller can refuse a layer share whose probe did not match the
// traced run.
#pragma once

#include <cstddef>
#include <string>

#include "exp/scenario.h"

namespace tibbench {

/// Probe inputs, derived from the traced run of one workload (per-trial
/// means, rounded) and the workload's scenario.
struct ProbeShape {
    std::size_t queue_depth = 1;           ///< sim.queue_high_water
    std::size_t receivers = 1;             ///< decision-broadcast audience
    std::size_t trust_table = 1;           ///< sensing nodes, one trust cell each
    std::size_t reports_per_decision = 1;  ///< cluster.reports_received / cluster.decisions
    std::size_t judged_correct = 0;        ///< trust.rewards / cluster.decisions
    std::size_t judged_faulty = 0;         ///< trust.penalties / cluster.decisions
};

/// One probe's time per operation plus the shape it ran at.
struct Probe {
    double value = 0.0;    ///< time per operation, in `unit`
    const char* unit = "ns";
    std::string shape;     ///< "key=value ..." as observed while probing
    bool shape_ok = true;  ///< the observed shape is the requested one
};

/// Simulator::schedule_at + step at the traced queue depth (ns per event).
Probe probe_sim_event(const ProbeShape& shape);
/// Channel::broadcast of a decision-sized DecisionPayload to `receivers`
/// counting endpoints, drained through a simulator holding the traced
/// queue depth (us per broadcast).
Probe probe_broadcast(const ProbeShape& shape);
/// Channel::unicast of one report to a counting endpoint, drained at the
/// traced queue depth (ns).
Probe probe_unicast(const ProbeShape& shape);
/// SensorNode::handle_packet on decision broadcasts, the judged and the
/// unjudged case weighted by the share of receivers a decision names (ns).
Probe probe_decision_handle(const tibfit::exp::Scenario& s, const ProbeShape& shape);
/// DecisionEngine::decide_binary over the traced neighbour/reporter split
/// (ns per decision).
Probe probe_decide_binary(const tibfit::exp::Scenario& s, const ProbeShape& shape);
/// DecisionEngine::submit + collect over reports drawn around the
/// scenario's events the way the location runner draws them (us per
/// decision). Its shape check compares reports per decision.
Probe probe_decide_location(const tibfit::exp::Scenario& s, const ProbeShape& shape);
/// CollusionDetector::inspect over one event's reports (us per window).
Probe probe_collusion_inspect(const tibfit::exp::Scenario& s, const ProbeShape& shape);
/// TrustManager::judge_correct / judge_faulty on a full table (ns each).
Probe probe_trust_judge(const tibfit::exp::Scenario& s, const ProbeShape& shape);
/// TrustManager::checkpoint + TrustManager::restore of a full table (us).
Probe probe_checkpoint_restore(const tibfit::exp::Scenario& s, const ProbeShape& shape);

}  // namespace tibbench
