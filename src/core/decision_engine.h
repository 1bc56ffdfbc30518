// The public façade of the TIBFIT core: everything a cluster head needs to
// run the protocol. Owns the trust table, the arbiters, and the
// concurrent-event window manager; exposes the binary path (Section 3.1)
// and the buffered location path (Sections 3.2-3.3).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/binary_arbiter.h"
#include "core/collusion_detector.h"
#include "core/concurrent_manager.h"
#include "core/location_arbiter.h"
#include "core/report.h"
#include "core/trust.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::core {

class DecisionChecker;

/// All protocol tunables in one place.
struct EngineConfig {
    DecisionPolicy policy = DecisionPolicy::TrustIndex;
    double sensing_radius = 20.0;  ///< paper's r_s
    double r_error = 5.0;          ///< localization error bound
    double t_out = 1.0;            ///< report-collection window (seconds)
    TrustParams trust;             ///< lambda, f_r, removal threshold
    /// Extension (paper future work, Section 7): statistically detect
    /// level-2 collusion from improbably identical reports and penalize
    /// the convicted pairs' trust. Off by default (the paper's protocol).
    bool collusion_defense = false;
    CollusionDetectorParams collusion;
    /// Extension: trust-weighted event-location estimate (see
    /// LocationArbiter::set_trust_weighted_location). Off by default.
    bool trust_weighted_location = false;
};

/// One CH's protocol instance. Value-semantic trust state can be adopted
/// from / released to a base station across CH rotations.
class DecisionEngine {
  public:
    explicit DecisionEngine(EngineConfig cfg);

    const EngineConfig& config() const { return cfg_; }
    TrustManager& trust() { return trust_; }
    const TrustManager& trust() const { return trust_; }

    /// CH rotation support: replace the trust table (e.g. with the archive a
    /// new CH fetched from the base station). The engine's recorder (if
    /// any) is re-attached to the adopted table so telemetry survives the
    /// swap, and an attached checker resynchronises.
    void adopt_trust(TrustManager table);

    /// Attaches the observability recorder: trust-update telemetry plus
    /// the clusterer's round-cap counter. nullptr detaches. Survives
    /// adopt_trust.
    void set_recorder(obs::Recorder* recorder);

    /// Attaches a decision checker (see core/check_hooks.h) notified of
    /// every decision, quarantine and trust adoption. The checker is
    /// immediately synchronised to the current trust table. nullptr
    /// detaches. The checker must outlive the engine or be detached first.
    void set_checker(DecisionChecker* checker);
    DecisionChecker* checker() const { return checker_; }

    /// CH rotation support: hand the trust table over (the engine keeps a
    /// copy; the base station owns the archive).
    TrustManager snapshot_trust() const { return trust_; }

    // ---- Binary path (Section 3.1) ----

    /// Decides one binary window. `apply_trust_updates` is honoured only
    /// under the TrustIndex policy.
    BinaryDecision decide_binary(std::span<const NodeId> event_neighbours,
                                 std::span<const NodeId> reporters,
                                 bool apply_trust_updates = true);

    // ---- Location path (Sections 3.2-3.3), buffered ----

    /// Feeds one located report into the concurrent-event window machinery.
    /// Returns true if the report opened a new circle — the caller should
    /// then arrange to call collect() at (report.time + t_out).
    bool submit(const EventReport& report);

    /// Earliest pending circle deadline, if any window is open.
    std::optional<double> next_deadline() const { return windows_.next_deadline(); }

    /// Releases every window whose circles have all expired by `now` and
    /// arbitrates each released group. `node_positions` maps NodeId ->
    /// position (index == id).
    std::vector<LocationDecision> collect(double now,
                                          std::span<const util::Vec2> node_positions,
                                          bool apply_trust_updates = true);

    /// One-shot location decision over an already-complete report window
    /// (used when the caller manages its own T_out, e.g. single-event
    /// experiments).
    std::vector<LocationDecision> decide_location(std::span<const EventReport> reports,
                                                  std::span<const util::Vec2> node_positions,
                                                  bool apply_trust_updates = true);

    /// Number of reports buffered in open windows.
    std::size_t buffered_reports() const { return pending_.size(); }

    /// The collusion detector state (meaningful when collusion_defense is
    /// enabled in the config).
    const CollusionDetector& collusion_detector() const { return collusion_; }

  private:
    void run_collusion_defense(std::span<const EventReport> reports);

    EngineConfig cfg_;
    TrustManager trust_;
    BinaryArbiter binary_;
    LocationArbiter location_;
    ConcurrentEventManager windows_;
    CollusionDetector collusion_;
    std::vector<EventReport> pending_;
    std::vector<EventReport> group_reports_;  ///< collect()'s current group (reused)
    obs::Recorder* recorder_ = nullptr;
    DecisionChecker* checker_ = nullptr;
};

}  // namespace tibfit::core
