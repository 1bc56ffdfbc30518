// tibfit::inject — deterministic fault-injection campaigns.
//
// A CampaignSpec is a declarative timeline of faults (channel degradation
// windows, CH kill/recover events, compromise onsets, behaviour shifts)
// that is pure data: JSON round-trippable, hashable into a sweep config,
// replayable from a seed. A Campaign binds one spec to one simulation run:
// it arms the channel with its degradation schedule (on a dedicated PRNG
// substream, so injection can never perturb the natural randomness) and
// schedules the timed events against the simulator, invoking callbacks the
// experiment runner registers. See docs/FAULT_INJECTION.md.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tibfit::obs {
class Recorder;
namespace json {
class Value;
class Writer;
}  // namespace json
}  // namespace tibfit::obs

namespace tibfit::inject {

/// Kill the acting cluster head at `kill_at`. `warm_handoff` decides whether
/// the successor restores the victim's trust checkpoint (warm) or starts
/// with a fresh table (cold — the control arm that quantifies what the
/// checkpoint buys). `recover_at` < 0 means the victim never returns;
/// otherwise leadership is handed back (again warm or cold) at that time.
struct ChFailover {
    double kill_at = 0.0;
    double recover_at = -1.0;
    bool warm_handoff = true;
};

/// At time `at`, raise the compromised fraction of the population to
/// `target_pct` (nodes flip in the run's deterministic selection order;
/// already-compromised nodes stay compromised — onsets never heal).
struct CompromiseOnset {
    double at = 0.0;
    double target_pct = 0.0;
};

/// At time `at`, change the liar behaviour of already-faulty nodes. A
/// negative rate means "keep the current value".
struct FaultRateShift {
    double at = 0.0;
    double missed_alarm_rate = -1.0;
    double false_alarm_rate = -1.0;
};

/// The full declarative timeline. Default-constructed == injection off.
struct CampaignSpec {
    std::vector<net::ChannelFaultWindow> degradations;
    std::vector<ChFailover> failovers;
    std::vector<CompromiseOnset> compromises;
    std::vector<FaultRateShift> fault_shifts;

    bool enabled() const {
        return !degradations.empty() || !failovers.empty() || !compromises.empty() ||
               !fault_shifts.empty();
    }

    /// True if `t` falls inside any channel degradation window (used to
    /// count decisions-made-under-degradation after a run).
    bool degraded_at(double t) const;

    /// Structural problems (negative probabilities, inverted windows,
    /// recover before kill, ...), one message per defect. Empty == valid.
    std::vector<std::string> validate() const;
};

/// Serializes a spec as one JSON object ({"degradations": [...], ...}).
void write_json(const CampaignSpec& spec, obs::json::Writer& w);

/// Rebuilds a spec from the write_json() shape; missing keys default.
/// Throws std::runtime_error, naming the key, on an unknown key, a
/// non-object spec or entry, a section that is not an array, or a value
/// of the wrong type.
CampaignSpec campaign_from_json(const obs::json::Value& v);

/// One spec bound to one run. The runner constructs it with the run's
/// injection stream (conventionally root.stream("inject")), registers the
/// callbacks it knows how to honour, then calls schedule() once before
/// sim.run(). Every timed event bumps inject.fault_events when a recorder
/// is attached.
class Campaign {
  public:
    Campaign(const CampaignSpec& spec, sim::Simulator& sim, util::Rng rng)
        : spec_(spec), sim_(&sim), rng_(rng) {}

    const CampaignSpec& spec() const { return spec_; }

    /// Installs the degradation windows into `channel` on a substream
    /// derived from this campaign's stream. No-op with no windows.
    void arm_channel(net::Channel& channel) const;

    void on_compromise(std::function<void(const CompromiseOnset&)> fn) {
        compromise_fn_ = std::move(fn);
    }
    void on_fault_shift(std::function<void(const FaultRateShift&)> fn) {
        fault_shift_fn_ = std::move(fn);
    }
    /// Invoked at kill_at with recovering=false and, when recover_at >= 0,
    /// again at recover_at with recovering=true.
    void on_failover(std::function<void(const ChFailover&, bool recovering)> fn) {
        failover_fn_ = std::move(fn);
    }

    /// Counts fired timeline events into inject.fault_events.
    void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

    /// Schedules every timeline event with a registered callback. Call
    /// exactly once, before running the simulation.
    void schedule();

  private:
    void note_fired() const;

    CampaignSpec spec_;
    sim::Simulator* sim_;
    util::Rng rng_;
    obs::Recorder* recorder_ = nullptr;
    std::function<void(const CompromiseOnset&)> compromise_fn_;
    std::function<void(const FaultRateShift&)> fault_shift_fn_;
    std::function<void(const ChFailover&, bool)> failover_fn_;
};

}  // namespace tibfit::inject
