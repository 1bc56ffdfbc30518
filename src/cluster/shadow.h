// Section 3.4 — shadow cluster heads.
//
// Two high-TI nodes within one hop of the CH listen in on all traffic going
// in and out of the CH (promiscuous monitoring), run the same decision
// computation, and — when the CH announces a conclusion that differs from
// their own — alert the base station, which then votes over the three
// conclusions and triggers re-election.
#pragma once

#include <deque>
#include <unordered_set>

#include "core/decision_engine.h"
#include "net/packet.h"
#include "net/radio.h"
#include "sim/process.h"
#include "util/vec2.h"

namespace tibfit::cluster {

/// A shadow CH: mirrors the watched CH's computation, never broadcasts
/// decisions, and files SchAlert packets with the base station on
/// divergence.
class ShadowClusterHead : public sim::Process {
  public:
    /// The owner must also register this process as a channel monitor of
    /// the watched CH (Channel::add_monitor, once the CH is attached) so
    /// report traffic is overheard.
    ShadowClusterHead(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                      core::EngineConfig engine_cfg, sim::ProcessId watched_ch,
                      sim::ProcessId base_station);

    void set_topology(std::vector<util::Vec2> node_positions);
    void set_binary_mode(bool binary) { binary_mode_ = binary; }

    core::DecisionEngine& engine() { return engine_; }

    /// Number of alerts this shadow has sent.
    std::size_t alerts_sent() const { return alerts_sent_; }

    /// Number of CH announcements this shadow agreed with.
    std::size_t agreements() const { return agreements_; }

    // sim::Process
    void handle_packet(const net::Packet& packet) override;

  private:
    struct OwnDecision {
        double time;
        bool event_declared;
        bool has_location;
        util::Vec2 location;
    };

    /// One report from sensor `src`, overheard directly or unwrapped from
    /// a relay's final hop.
    void handle_report(sim::ProcessId src, const net::ReportPayload& report);
    void decide_binary_window();
    void collect_location_windows();
    void check_announcement(const net::DecisionPayload& d);

    net::Radio radio_;
    core::DecisionEngine engine_;
    sim::ProcessId watched_ch_;
    sim::ProcessId base_station_;
    std::vector<util::Vec2> node_positions_;
    bool binary_mode_ = false;

    bool window_open_ = false;
    double window_opened_at_ = 0.0;
    std::vector<core::NodeId> window_reporters_;

    std::deque<OwnDecision> recent_;  ///< bounded mirror of recent conclusions
    std::deque<std::uint64_t> checked_seqs_;  ///< announcements already verified
    std::unordered_set<std::uint64_t> relay_seen_;  ///< (source, seq) dedup for envelopes
    std::size_t alerts_sent_ = 0;
    std::size_t agreements_ = 0;
};

}  // namespace tibfit::cluster
