// The cluster head: data sink of one cluster (Section 2). Collects event
// reports, runs the TIBFIT decision engine (or the baseline), broadcasts
// its decisions (which carry the per-node judgements that drive the trust
// bookkeeping everywhere else), and exchanges the trust archive with the
// base station across leadership periods.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/decision_engine.h"
#include "net/packet.h"
#include "net/radio.h"
#include "net/transport.h"
#include "sim/process.h"
#include "util/vec2.h"

namespace tibfit::obs {
class HistogramMetric;
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::cluster {

/// One decision a CH announced — what the harness logs and scores.
struct DecisionRecord {
    sim::ProcessId ch = sim::kNoProcess;  ///< the deciding CH
    std::uint64_t seq = 0;                ///< numbered per CH, from 0
    double time = 0.0;           ///< when the decision was made
    double window_opened = 0.0;  ///< when the first report of the window arrived
    bool event_declared = false;
    bool has_location = false;
    util::Vec2 location;
    double weight_reporters = 0.0;
    double weight_silent = 0.0;
    std::size_t n_reporters = 0;
};

/// A CH process. In the paper's Experiment 2 configuration CHs are
/// dedicated entities (not sensing nodes); with LEACH election any sensing
/// node can host one of these for its leadership period.
class ClusterHead : public sim::Process {
  public:
    ClusterHead(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                core::EngineConfig engine_cfg);

    /// Gives the CH the cluster topology: position of every sensing node,
    /// indexed by node id (Section 2: "the node that is chosen to be the CH
    /// knows the topology of the cluster").
    void set_topology(std::vector<util::Vec2> node_positions);

    /// Distributed cluster formation (Section 2 / LEACH): broadcasts a CH
    /// advertisement for `round` and resets membership to just this CH's
    /// own sensing identity (`self`, or no one if the CH is a dedicated
    /// entity). Nodes then join by sending AffiliatePayloads, which
    /// add_member() absorbs as they arrive. From then on the CH reasons
    /// only about its members: reports from strangers are ignored and
    /// strangers never count as silent event neighbours. Before the first
    /// advertisement every node in the topology is a member.
    void advertise(std::uint32_t round, core::NodeId self = core::kNoNode);

    /// Adds one affiliated member (idempotent).
    void add_member(core::NodeId member);

    /// Current member count (only meaningful after advertise).
    std::size_t member_count() const;

    /// Binary (Experiment 1) vs. location (Experiment 2) reporting.
    void set_binary_mode(bool binary) { binary_mode_ = binary; }

    /// Enables multi-hop report collection (Section 3.4 extension): relay
    /// envelopes terminating here are unwrapped and processed as if the
    /// originating sensor had sent its report directly.
    void enable_relay(const net::RoutingTable* routes, net::TransportParams params = {});

    /// The relay shim, if enabled (telemetry).
    const net::ReliableTransport* transport() const {
        return transport_ ? &*transport_ : nullptr;
    }

    /// Where to send aggregated results / trust transfers (kNoProcess to
    /// run standalone).
    void set_base_station(sim::ProcessId bs) { base_station_ = bs; }

    /// Section 3.4 failure injection: a corrupt CH announces the opposite
    /// of what its engine concluded.
    void set_corrupt(bool corrupt) { corrupt_ = corrupt; }
    bool corrupt() const { return corrupt_; }

    /// Active CHs process reports; an inactive CH ignores everything (it is
    /// not this round's leader).
    void set_active(bool active) { active_ = active; }
    bool active() const { return active_; }

    core::DecisionEngine& engine() { return engine_; }
    const core::DecisionEngine& engine() const { return engine_; }

    /// Leadership hand-off: adopt the archive trust table.
    void begin_leadership(core::TrustManager table);

    /// Newly elected CH asks the base station for the cluster's trust
    /// archive (Section 2); the reply arrives as a TiTransfer packet.
    void request_archive();

    /// Leadership end: ship the trust table to the base station and go
    /// inactive.
    void end_leadership();

    /// Observer invoked at every decision, after its broadcast. The CH
    /// keeps no log of its own: the observer is the only record.
    void on_decision(std::function<void(const DecisionRecord&)> cb) { decision_cb_ = std::move(cb); }

    // Telemetry. The run harness exports these counts, summed over every
    // CH in the run, to a recorder's registry at the end of the run.
    std::size_t reports_received() const { return reports_received_; }
    std::size_t windows_opened() const { return windows_opened_; }
    std::size_t decisions_announced() const { return decisions_announced_; }
    /// Announced decisions that declared an event (a corrupt CH's inverted
    /// verdicts included; a base station's later override is not seen).
    std::size_t events_declared() const { return events_declared_; }

    /// Attaches observability (nullptr detaches): the decision-latency and
    /// CTI-margin histograms and report/window/decision trace records.
    /// Propagates to the engine's trust table (and re-propagates whenever
    /// an archive is adopted), so one call instruments the whole CH stack.
    void set_recorder(obs::Recorder* recorder);

    // sim::Process
    void handle_packet(const net::Packet& packet) override;

  private:
    /// One report from sensor `src`, sent directly or unwrapped from a relay.
    void handle_report(sim::ProcessId src, const net::ReportPayload& report);
    void decide_binary_window();
    void collect_location_windows();
    void note_window_opened(core::NodeId first_reporter);
    void note_decision(const DecisionRecord& rec);
    void announce(const DecisionRecord& rec, std::vector<core::NodeId> judged_correct,
                  std::vector<core::NodeId> judged_faulty);

    /// Topology as exposed to the decision engine: members keep their real
    /// position, non-members sit at an unreachable sentinel position so
    /// they are never event neighbours.
    const std::vector<util::Vec2>& engine_positions() const;

    net::Radio radio_;
    std::optional<net::ReliableTransport> transport_;
    core::DecisionEngine engine_;
    std::vector<util::Vec2> node_positions_;
    std::vector<bool> is_member_;           ///< empty = everyone is a member
    mutable std::vector<util::Vec2> masked_positions_;
    mutable bool masked_dirty_ = true;
    bool binary_mode_ = false;
    bool active_ = true;
    bool corrupt_ = false;
    sim::ProcessId base_station_ = sim::kNoProcess;

    // Binary-window state.
    bool window_open_ = false;
    double window_opened_at_ = 0.0;
    std::vector<core::NodeId> window_reporters_;
    std::vector<core::NodeId> window_neighbours_;  ///< decide_binary_window's (reused)

    std::uint64_t next_seq_ = 0;
    std::function<void(const DecisionRecord&)> decision_cb_;

    std::size_t reports_received_ = 0;
    std::size_t windows_opened_ = 0;
    std::size_t decisions_announced_ = 0;
    std::size_t events_declared_ = 0;
    obs::Recorder* recorder_ = nullptr;
    obs::HistogramMetric* h_latency_ = nullptr;
    obs::HistogramMetric* h_margin_ = nullptr;
};

}  // namespace tibfit::cluster
