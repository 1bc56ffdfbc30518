// The base station (Section 2 / 3.4): archives trust tables across CH
// rotations, arbitrates CH-vs-shadow disagreements by simple voting, and
// prompts re-election when a CH is outvoted.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/trust.h"
#include "net/packet.h"
#include "net/radio.h"
#include "sim/process.h"
#include "util/vec2.h"

namespace tibfit::cluster {

/// The base station's final conclusion for one CH decision.
struct FinalDecision {
    sim::ProcessId ch = sim::kNoProcess;  ///< the CH whose decision was voted on
    std::uint64_t seq = 0;
    double time = 0.0;
    bool event_declared = false;
    bool has_location = false;
    util::Vec2 location;
    bool overridden = false;  ///< shadows outvoted the CH
};

/// Single-cluster base station (one archive; multi-cluster deployments run
/// one instance per cluster id in the harness).
class BaseStation : public sim::Process {
  public:
    /// `alert_wait` is how long after a CH announcement the station waits
    /// for shadow alerts before finalizing its vote, and how long an alert
    /// that arrives first waits for the announcement.
    BaseStation(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                core::TrustParams trust_params, double alert_wait = 0.5);

    /// The trust archive (persisted across CH leaderships).
    const core::TrustManager& archive() const { return archive_; }
    core::TrustManager& archive() { return archive_; }

    /// Trust the station keeps about CH entities themselves (demoted when
    /// outvoted, Section 3.4).
    double ch_trust(sim::ProcessId ch) const;

    /// Fired when shadows outvote a CH — the deployment should re-elect.
    void on_reelection(std::function<void(sim::ProcessId faulty_ch)> cb) {
        reelect_cb_ = std::move(cb);
    }

    /// Authoritative decision log after voting.
    const std::vector<FinalDecision>& final_decisions() const { return finals_; }

    /// Number of decisions where the CH was overridden.
    std::size_t overrides() const { return overrides_; }

    // sim::Process
    void handle_packet(const net::Packet& packet) override;

  private:
    /// One CH decision under vote, keyed by (CH, seq).
    struct PendingVote {
        std::uint64_t seq;
        sim::ProcessId ch;
        std::optional<net::DecisionPayload> announced;  ///< the CH's copy, once heard
        double vote_at = 0.0;  ///< when the vote closes; set by the CH's copy
        std::size_t disagreements = 0;
        bool shadow_conclusion = false;  ///< last dissenting conclusion
        util::Vec2 shadow_location;
    };

    /// Runs `alert_wait` after a vote's first message: closes the vote if
    /// its time has come, or drops an alert the CH's copy did not follow.
    void finalize(std::uint64_t key);
    static std::uint64_t vote_key(sim::ProcessId ch, std::uint64_t seq) {
        return (static_cast<std::uint64_t>(ch) << 32) | seq;
    }

    net::Radio radio_;
    core::TrustManager archive_;
    core::TrustManager ch_trust_;
    double alert_wait_;
    std::unordered_map<std::uint64_t, PendingVote> pending_;
    std::vector<FinalDecision> finals_;
    std::size_t overrides_ = 0;
    std::function<void(sim::ProcessId)> reelect_cb_;
};

}  // namespace tibfit::cluster
