// exp::Scenario — the one aggregate describing a complete experiment, and
// the only way to configure a run.
//
// Scenario owns the layer structs themselves — core::EngineConfig (with
// TrustParams), net::ChannelParams/TransportParams,
// sensor::FaultParams/MobilityParams, inject::CampaignSpec — plus the
// field geometry and the two small workload blocks that are genuinely
// experiment-shaped. One seed, one validate(), one JSON
// round-trip. Start from binary_defaults() (Table 1) or
// location_defaults() (Table 2) and set fields directly:
//
//   exp::Scenario s = exp::Scenario::binary_defaults();
//   s.engine.trust.lambda = 0.2;
//   s.binary.pct_faulty = 0.7;
//   exp::run_binary_experiment(s);
//
// See docs/OBSERVABILITY.md (artifact schema) and docs/FAULT_INJECTION.md
// (campaign wiring).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/config.h"
#include "core/decision_engine.h"
#include "inject/campaign.h"
#include "net/channel.h"
#include "net/transport.h"
#include "sensor/fault_model.h"
#include "sensor/mobility.h"

namespace tibfit::obs {
class Recorder;
namespace json {
class Value;
class Writer;
}  // namespace json
}  // namespace tibfit::obs

namespace tibfit::exp {

/// The square field the sensors cover and their sensing radius r_s.
struct Geometry {
    double field = 100.0;
    double sensing_radius = 20.0;
};

/// Experiment-1 workload shape (binary event model, Section 4.1).
struct BinaryWorkload {
    std::size_t n_nodes = 10;
    double pct_faulty = 0.4;
    /// Temporal spread of false alarms within a quiet window, in units of
    /// t_out. 0 = perfectly coordinated (all in one CH window); large =
    /// fully independent (each alarm adjudicated alone). The paper leaves
    /// this implicit; the Figure-3 crossover (75% alarms helping below 80%
    /// compromised, collapsing above) needs partial coincidence.
    double false_alarm_spread_touts = 2.0;
    std::size_t events = 100;
    double event_interval = 10.0;
    bool use_shadows = false;  ///< Section 3.4 shadow CHs + base station
    bool corrupt_ch = false;   ///< CH announces inverted decisions
    /// Route reports over the ack/retry relay transport even in the
    /// single-hop cluster, so injected channel loss degrades gracefully
    /// (retransmission) instead of silently deleting correct reports.
    bool reliable_reports = false;
};

/// Experiment-2/3 workload shape (location model, Sections 4.2-4.3).
struct LocationWorkload {
    std::size_t n_nodes = 100;
    bool grid_layout = true;
    double pct_faulty = 0.1;
    sensor::NodeClass fault_level = sensor::NodeClass::Level0;
    bool multihop = false;
    double radio_range = 30.0;
    bool mobile = false;
    std::size_t n_ch = 5;
    std::size_t rotation_period = 20;
    std::size_t events = 200;
    double event_interval = 10.0;
    std::size_t burst = 1;
    double tx_jitter = 0.0;
    // Experiment 3 decay schedule (pct_faulty ignored when decay is on).
    bool decay = false;
    double decay_initial = 0.05;
    double decay_step = 0.05;
    double decay_final = 0.75;
    std::size_t decay_epoch_events = 50;
    std::size_t epoch_events = 50;  ///< accuracy-vs-time series granularity
    bool keep_trace = false;
};

/// The complete description of one experiment run.
struct Scenario {
    enum class Kind { Binary, Location };

    Kind kind = Kind::Binary;
    std::uint64_t seed = 1;

    /// Protocol tunables: policy, t_out, r_error, sensing radius, trust
    /// (lambda / f_r / removal_ti), collusion defense, weighted location.
    /// For binary scenarios trust.fault_rate < 0 means "equal to the NER"
    /// (faults.natural_error_rate), matching Table 1.
    core::EngineConfig engine;
    net::ChannelParams channel;
    net::TransportParams transport;  ///< relay/ack tunables (reliable paths)
    Geometry deployment;
    sensor::FaultParams faults;
    sensor::MobilityParams mobility;
    inject::CampaignSpec campaign;

    BinaryWorkload binary;
    LocationWorkload location;

    /// Self-checking: off (production, zero overhead), shadow (lockstep
    /// differential oracle + invariant counting; the run completes and
    /// reports divergence counts), assert (first divergence or invariant
    /// violation throws). Serialized.
    check::Settings check;

    /// Optional observability attachment (non-owning; may be nullptr).
    /// Instrumentation never touches the RNG, so results are bit-identical
    /// with or without it. Not serialized.
    obs::Recorder* recorder = nullptr;
    /// Copies the CH decision log into the result (binary runs). Not
    /// serialized.
    bool keep_decisions = false;

    /// Paper-faithful starting points (Table 1 / Table 2 defaults).
    static Scenario binary_defaults();
    static Scenario location_defaults();

    /// The trust parameters a run actually uses: resolves the binary-kind
    /// "fault_rate tracks NER" sentinel.
    core::TrustParams effective_trust() const;

    /// Upper bounds validate() puts on the count knobs, so a mistyped
    /// count is refused with a message instead of exhausting memory. Node
    /// counts (n_nodes, location n_ch) are capped at kMaxNodes; event
    /// counts (events, burst) and epoch lengths (epoch_events,
    /// decay_epoch_events) at kMaxEvents. Both sit far above every
    /// committed configuration: the largest uses 2000 events and about
    /// 100 nodes.
    static constexpr std::size_t kMaxNodes = 100'000;
    static constexpr std::size_t kMaxEvents = 1'000'000;

    /// Structural consistency check; one message per defect, empty ==
    /// valid. Includes campaign.validate().
    std::vector<std::string> validate() const;
};

/// Serializes everything except the runtime attachments (recorder,
/// keep_decisions) as one JSON object.
void write_json(const Scenario& scenario, obs::json::Writer& w);

/// Overwrites the fields that `v` (a write_json() document or any part of
/// it) names. Throws std::runtime_error naming the field's path on an
/// unknown field, a wrong type, a count that is negative, fractional or
/// out of range, or an unknown kind/policy/fault_level/check mode name.
void apply_json(Scenario& scenario, const obs::json::Value& v);

/// The kind's defaults, then apply_json(v).
Scenario scenario_from_json(const obs::json::Value& v);

/// The apply_json() overlay `path=value` tokens spell: `a.b=0.2` is
/// {"a": {"b": 0.2}}. A value is true/false, else a number if all of it is
/// one (nan and inf too), else a string; a later token for a path wins.
/// Throws std::runtime_error on a token without a path, one nested deeper
/// than obs::json::kMaxDepth, or one whose path runs through another's
/// value (engine.trust=1 beside engine.trust.lambda=0.2).
obs::json::Value overlay_from_tokens(const std::vector<std::string>& tokens);

/// Convenience: full JSON text round-trip.
std::string to_json(const Scenario& scenario);
Scenario scenario_from_json_text(const std::string& text);

}  // namespace tibfit::exp
