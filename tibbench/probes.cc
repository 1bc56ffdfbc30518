#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "core/collusion_detector.h"
#include "core/decision_engine.h"
#include "core/trust.h"
#include "net/channel.h"
#include "net/radio.h"
#include "sensor/fault_model.h"
#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tibbench {

namespace {

using namespace tibfit;
using Clock = std::chrono::steady_clock;

/// Timed blocks per probe; a probe reports their median.
constexpr int kBlocks = 7;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
}

/// Runs `block` kBlocks times and returns the median seconds per operation,
/// one block performing `ops` operations.
template <typename Block>
double seconds_per_op(double ops, Block&& block) {
    std::vector<double> t;
    for (int b = 0; b < kBlocks; ++b) {
        const auto t0 = Clock::now();
        block();
        t.push_back(since(t0) / ops);
    }
    return median(std::move(t));
}

/// As seconds_per_op, but each block is `batches` batches of `batch`
/// operations, and `reset` runs untimed before every batch.
template <typename Reset, typename Op>
double seconds_per_op_reset(std::size_t batches, std::size_t batch, Reset&& reset, Op&& op) {
    std::vector<double> t;
    for (int b = 0; b < kBlocks; ++b) {
        double busy = 0.0;
        for (std::size_t k = 0; k < batches; ++k) {
            reset();
            const auto t0 = Clock::now();
            for (std::size_t j = 0; j < batch; ++j) op();
            busy += since(t0);
        }
        t.push_back(busy / static_cast<double>(batches * batch));
    }
    return median(std::move(t));
}

std::string describe(std::initializer_list<std::pair<const char*, double>> fields) {
    std::ostringstream os;
    const char* sep = "";
    for (const auto& [key, value] : fields) {
        os << sep << key << '=' << value;
        sep = " ";
    }
    return os.str();
}

/// A channel endpoint that only counts what reaches it.
class CountingSink : public sim::Process {
  public:
    using sim::Process::Process;
    void handle_packet(const net::Packet&) override { ++received; }
    std::size_t received = 0;
};

/// Parks `n` events far in the future, so a probe's queue operations run
/// at the traced queue depth.
void park_events(sim::Simulator& sim, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) sim.schedule_at(1e9 + static_cast<double>(i), [] {});
}

/// Runs every event due within the next simulated second; parked events
/// stay queued.
void drain(sim::Simulator& sim) { sim.run_until(sim.now() + 1.0); }

/// The engine configuration the location runner hands each CH.
core::EngineConfig engine_config(const exp::Scenario& s) {
    core::EngineConfig cfg = s.engine;
    cfg.trust = s.effective_trust();
    cfg.sensing_radius = s.deployment.sensing_radius;
    return cfg;
}

/// The location runner's lattice, for `n` nodes on the scenario's field.
std::vector<util::Vec2> lattice(std::size_t n, double field) {
    const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    const double spacing = field / static_cast<double>(side);
    std::vector<util::Vec2> p(n);
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = {spacing * (0.5 + static_cast<double>(i % side)),
                spacing * (0.5 + static_cast<double>(i / side))};
    }
    return p;
}

/// A decision broadcast judging `correct` + `faulty` consecutive node ids
/// from `first` on.
net::DecisionPayload decision_payload(std::size_t correct, std::size_t faulty,
                                      core::NodeId first) {
    net::DecisionPayload d;
    d.event_declared = true;
    d.has_location = true;
    d.location = {50.0, 50.0};
    for (std::size_t i = 0; i < correct + faulty; ++i) {
        auto& list = i < correct ? d.judged_correct : d.judged_faulty;
        list.push_back(first + static_cast<core::NodeId>(i));
    }
    return d;
}

/// The location model's reporting population: a lattice with a fixed
/// compromised subset, drawing reports the way the runners' behaviours do.
/// Points at the scenario, which must outlive it.
class Population {
  public:
    Population(const exp::Scenario& s, std::size_t n, util::Rng& rng)
        : s_(&s), positions_(lattice(n, s.deployment.field)), faulty_(n, false) {
        const double pct =
            s.kind == exp::Scenario::Kind::Binary ? s.binary.pct_faulty : s.location.pct_faulty;
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_index(i)]);
        const auto compromised = static_cast<std::size_t>(pct * static_cast<double>(n) + 0.5);
        for (std::size_t i = 0; i < compromised && i < n; ++i) faulty_[order[i]] = true;
        colluding_ = s.kind == exp::Scenario::Kind::Location &&
                     s.location.fault_level == sensor::NodeClass::Level2;
    }

    const std::vector<util::Vec2>& positions() const { return positions_; }

    /// One event's reports: every node within the sensing radius reports;
    /// correct nodes at the correct sigma; faulty nodes drop
    /// faulty_drop_rate of events and report at the faulty sigma, except
    /// level-2 colluders, who drop together or all report one location.
    void event_reports(const util::Vec2& ev, double t, util::Rng& rng,
                       std::vector<core::EventReport>& out) const {
        const sensor::FaultParams& f = s_->faults;
        const util::Vec2 shared = ev + rng.gaussian_offset(f.faulty_sigma);
        const bool group_drops = rng.chance(f.faulty_drop_rate);
        for (std::size_t i = 0; i < positions_.size(); ++i) {
            if (util::distance(positions_[i], ev) > s_->deployment.sensing_radius) continue;
            util::Vec2 loc = ev + rng.gaussian_offset(f.correct_sigma);
            if (faulty_[i]) {
                if (colluding_ ? group_drops : rng.chance(f.faulty_drop_rate)) continue;
                loc = colluding_ ? shared : ev + rng.gaussian_offset(f.faulty_sigma);
            }
            out.push_back({static_cast<core::NodeId>(i), t, loc});
        }
    }

    /// A uniform event location at least a sensing radius (or a quarter
    /// field) from the border.
    util::Vec2 event_location(util::Rng& rng) const {
        const double field = s_->deployment.field;
        const double margin = std::min(s_->deployment.sensing_radius, field / 4.0);
        return {rng.uniform(margin, field - margin), rng.uniform(margin, field - margin)};
    }

  private:
    const exp::Scenario* s_;
    std::vector<util::Vec2> positions_;
    std::vector<bool> faulty_;
    bool colluding_ = false;
};

}  // namespace

Probe probe_sim_event(const ProbeShape& shape) {
    constexpr std::size_t kOps = 100000;
    constexpr double kHorizon = 1000.0;
    const std::size_t depth = std::max<std::size_t>(shape.queue_depth, 1);
    sim::Simulator sim;
    util::Rng rng(1);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < depth; ++i) {
        sim.schedule_at(rng.uniform(0.0, kHorizon), [&fired] { ++fired; });
    }
    // Hold model: every operation schedules one event and runs the
    // earliest, so the queue stays at the traced depth.
    const double s = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            sim.schedule_at(sim.now() + rng.uniform(0.0, kHorizon), [&fired] { ++fired; });
            sim.step();
        }
    });
    Probe p;
    p.value = s * 1e9;
    p.unit = "ns";
    p.shape = describe({{"queue_depth", static_cast<double>(sim.pending())},
                        {"traced_queue_depth", static_cast<double>(depth)}});
    p.shape_ok = sim.pending() == depth && fired == kBlocks * kOps;
    return p;
}

Probe probe_broadcast(const ProbeShape& shape) {
    constexpr std::size_t kOps = 1000;
    const std::size_t n = std::max<std::size_t>(shape.receivers, 1);
    sim::Simulator sim;
    park_events(sim, shape.queue_depth > n ? shape.queue_depth - n : 0);
    net::ChannelParams params;
    params.drop_probability = 0.0;  // the receiver count is a count of deliveries
    net::Channel channel(sim, util::Rng(2), params);
    std::vector<std::unique_ptr<CountingSink>> sinks;
    for (std::size_t i = 0; i < n; ++i) {
        sinks.push_back(std::make_unique<CountingSink>(sim, static_cast<sim::ProcessId>(i)));
        channel.attach(*sinks.back(),
                       {static_cast<double>(i % 10), static_cast<double>(i / 10)}, 1e3);
    }
    CountingSink head(sim, static_cast<sim::ProcessId>(n));
    channel.attach(head, {5.0, 5.0}, 1e3);
    net::Packet packet;
    packet.src = head.id();
    packet.payload = decision_payload(shape.judged_correct, shape.judged_faulty, 0);
    std::size_t scheduled = 0;
    const double s = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            scheduled += channel.broadcast(packet);
            drain(sim);
        }
    });
    std::size_t received = 0;
    for (const auto& sink : sinks) received += sink->received;
    Probe p;
    p.value = s * 1e6;
    p.unit = "us";
    p.shape = describe(
        {{"receivers", static_cast<double>(received) / static_cast<double>(kBlocks * kOps)},
         {"judged", static_cast<double>(shape.judged_correct + shape.judged_faulty)},
         {"queue_depth", static_cast<double>(sim.pending() + n)}});
    p.shape_ok = scheduled == received && received == n * kBlocks * kOps;
    return p;
}

Probe probe_unicast(const ProbeShape& shape) {
    constexpr std::size_t kOps = 20000;
    sim::Simulator sim;
    park_events(sim, shape.queue_depth > 1 ? shape.queue_depth - 1 : 0);
    net::ChannelParams params;
    params.drop_probability = 0.0;
    net::Channel channel(sim, util::Rng(3), params);
    CountingSink from(sim, 0), to(sim, 1);
    channel.attach(from, {0.0, 0.0}, 1e3);
    channel.attach(to, {3.0, 4.0}, 1e3);
    net::ReportPayload report;
    report.has_location = true;
    report.offset = {5.0, 1.0};
    net::Packet packet;
    packet.src = from.id();
    packet.dst = to.id();
    packet.payload = report;
    std::size_t sent = 0;
    const double s = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            sent += channel.unicast(packet) ? 1 : 0;
            drain(sim);
        }
    });
    Probe p;
    p.value = s * 1e9;
    p.unit = "ns";
    p.shape = describe(
        {{"receivers", 1.0}, {"queue_depth", static_cast<double>(sim.pending() + 1)}});
    p.shape_ok = sent == kBlocks * kOps && to.received == sent;
    return p;
}

Probe probe_decision_handle(const exp::Scenario& s, const ProbeShape& shape) {
    constexpr std::size_t kOps = 100000;
    sim::Simulator sim;
    net::Channel channel(sim, util::Rng(4));
    sensor::SensorNode node(sim, 0, {0.0, 0.0}, s.deployment.sensing_radius,
                            net::Radio(channel, 0),
                            std::make_unique<sensor::CorrectBehavior>(s.faults), util::Rng(5),
                            s.effective_trust());
    const std::size_t judged = shape.judged_correct + shape.judged_faulty;
    // Ids start past the probed node, so `unjudged` never names it; `named`
    // swaps the node in for the last judgement.
    const net::DecisionPayload unjudged =
        decision_payload(shape.judged_correct, shape.judged_faulty, 1);
    net::DecisionPayload named = unjudged;
    auto& list = named.judged_faulty.empty() ? named.judged_correct : named.judged_faulty;
    if (list.empty()) {
        list.push_back(0);
    } else {
        list.back() = 0;
    }
    net::Packet named_packet;
    named_packet.src = 1;
    named_packet.dst = net::kBroadcast;
    named_packet.payload = named;
    net::Packet unjudged_packet = named_packet;
    unjudged_packet.payload = unjudged;

    const double named_s = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) node.handle_packet(named_packet);
    });
    const double unjudged_s = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) node.handle_packet(unjudged_packet);
    });
    // A decision names `judged` of the trust_table sensors that hear it.
    const double named_share =
        std::min(1.0, static_cast<double>(judged) /
                          static_cast<double>(std::max<std::size_t>(shape.trust_table, 1)));
    Probe p;
    p.value = (named_share * named_s + (1.0 - named_share) * unjudged_s) * 1e9;
    p.unit = "ns";
    p.shape = describe({{"judged", static_cast<double>(judged)},
                        {"named_share", named_share},
                        {"named_ns", named_s * 1e9},
                        {"unjudged_ns", unjudged_s * 1e9}});
    p.shape_ok =
        judged > 0 && named.judged_correct.size() + named.judged_faulty.size() == judged;
    return p;
}

Probe probe_decide_binary(const exp::Scenario& s, const ProbeShape& shape) {
    constexpr std::size_t kBatches = 500, kBatch = 16;
    const core::EngineConfig cfg = engine_config(s);
    // A binary cluster judges every member; a location decision judges the
    // event neighbours.
    const std::size_t neighbours =
        s.kind == exp::Scenario::Kind::Binary
            ? shape.trust_table
            : std::max(shape.judged_correct + shape.judged_faulty, shape.reports_per_decision);
    const std::size_t reporters = std::min(shape.reports_per_decision, neighbours);
    std::vector<core::NodeId> all(neighbours);
    std::iota(all.begin(), all.end(), core::NodeId{0});
    const std::vector<core::NodeId> reporting(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(reporters));
    core::DecisionEngine engine(cfg);
    std::size_t off_shape = 0;
    // Fresh trust every batch, so repeated verdicts never isolate a node
    // and shrink the vote below the traced shape.
    const double sec = seconds_per_op_reset(
        kBatches, kBatch, [&] { engine.adopt_trust(core::TrustManager(cfg.trust)); },
        [&] {
            const auto d = engine.decide_binary(all, reporting);
            off_shape += d.reporters.size() + d.silent.size() != neighbours ? 1 : 0;
        });
    Probe p;
    p.value = sec * 1e9;
    p.unit = "ns";
    p.shape = describe({{"neighbours", static_cast<double>(neighbours)},
                        {"reporters", static_cast<double>(reporters)}});
    p.shape_ok = off_shape == 0 && reporters > 0;
    return p;
}

Probe probe_decide_location(const exp::Scenario& s, const ProbeShape& shape) {
    // Each engine plays one run's worth of event instants, so trust and
    // collusion convictions evolve as they do within a trial.
    constexpr std::size_t kEngines = 8, kInstants = 60;
    const core::EngineConfig cfg = engine_config(s);
    const std::size_t burst = s.kind == exp::Scenario::Kind::Binary ? 1 : s.location.burst;
    util::Rng rng(6);

    // Pre-draw every report, so the timed region is submit + collect only.
    struct Instant {
        std::vector<core::EventReport> reports;
        double collect_at = 0.0;
    };
    std::vector<Population> populations;
    populations.reserve(kEngines);
    std::vector<std::vector<Instant>> plan(kEngines, std::vector<Instant>(kInstants));
    std::size_t reports_per_block = 0;
    for (std::size_t e = 0; e < kEngines; ++e) {
        populations.emplace_back(s, std::max<std::size_t>(shape.trust_table, 1), rng);
        for (std::size_t i = 0; i < kInstants; ++i) {
            Instant& inst = plan[e][i];
            const double t = 10.0 * static_cast<double>(i + 1);
            for (std::size_t b = 0; b < burst; ++b) {
                const util::Vec2 ev = populations[e].event_location(rng);
                populations[e].event_reports(ev, t, rng, inst.reports);
            }
            inst.collect_at = t + cfg.t_out + 1e-6;
            reports_per_block += inst.reports.size();
        }
    }

    std::size_t decisions = 0;
    std::vector<double> per_decision;
    for (int block = 0; block < kBlocks; ++block) {
        double busy = 0.0;
        std::size_t block_decisions = 0;
        for (std::size_t e = 0; e < kEngines; ++e) {
            core::DecisionEngine engine(cfg);  // fresh trust for every plan
            const auto& positions = populations[e].positions();
            const auto t0 = Clock::now();
            for (const Instant& inst : plan[e]) {
                for (const auto& r : inst.reports) engine.submit(r);
                block_decisions += engine.collect(inst.collect_at, positions).size();
            }
            busy += since(t0);
        }
        decisions += block_decisions;
        per_decision.push_back(busy /
                               static_cast<double>(std::max<std::size_t>(block_decisions, 1)));
    }
    const double observed_rpd = static_cast<double>(reports_per_block * kBlocks) /
                                static_cast<double>(std::max<std::size_t>(decisions, 1));
    const double traced_rpd = static_cast<double>(shape.reports_per_decision);
    Probe p;
    p.value = median(std::move(per_decision)) * 1e6;
    p.unit = "us";
    p.shape = describe({{"reports_per_event",
                         static_cast<double>(reports_per_block) /
                             static_cast<double>(kEngines * kInstants * burst)},
                        {"reports_per_decision", observed_rpd},
                        {"traced_reports_per_decision", traced_rpd}});
    // Equal reports per decision mean the clusterer split the probe's
    // events the way it split the traced run's.
    p.shape_ok = decisions > 0 && std::abs(observed_rpd - traced_rpd) <= 0.35 * traced_rpd;
    return p;
}

Probe probe_collusion_inspect(const exp::Scenario& s, const ProbeShape& shape) {
    constexpr std::size_t kWindows = 256, kOps = 4096;
    util::Rng rng(7);
    const Population population(s, std::max<std::size_t>(shape.trust_table, 1), rng);
    std::vector<std::vector<core::EventReport>> windows(kWindows);
    std::size_t reports = 0;
    for (auto& w : windows) {
        const util::Vec2 ev = population.event_location(rng);
        population.event_reports(ev, 0.0, rng, w);
        reports += w.size();
    }
    core::CollusionDetector detector(s.engine.collusion);
    std::size_t suspects = 0, next = 0;
    const double sec = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            suspects += detector.inspect(windows[next++ % kWindows]).suspects.size();
        }
    });
    Probe p;
    p.value = sec * 1e6;
    p.unit = "us";
    p.shape = describe(
        {{"window", static_cast<double>(reports) / static_cast<double>(kWindows)},
         {"suspects_per_window",
          static_cast<double>(suspects) / static_cast<double>(kBlocks * kOps)}});
    return p;
}

Probe probe_trust_judge(const exp::Scenario& s, const ProbeShape& shape) {
    constexpr std::size_t kOps = 200000;
    const std::size_t n = std::max<std::size_t>(shape.trust_table, 1);
    core::TrustManager table(s.effective_trust());
    for (std::size_t i = 0; i < n; ++i) table.judge_correct(static_cast<core::NodeId>(i));
    std::size_t op = 0;
    // Runs of ten verdicts per node, one faulty then nine correct, keep
    // every accumulator bounded.
    const double sec = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i, ++op) {
            const auto node = static_cast<core::NodeId>((op / 10) % n);
            if (op % 10 == 0) {
                table.judge_faulty(node);
            } else {
                table.judge_correct(node);
            }
        }
    });
    Probe p;
    p.value = sec * 1e9;
    p.unit = "ns";
    p.shape = describe({{"trust_table", static_cast<double>(table.tracked())}});
    p.shape_ok = table.tracked() == n;
    return p;
}

Probe probe_checkpoint_restore(const exp::Scenario& s, const ProbeShape& shape) {
    constexpr std::size_t kOps = 20000;
    const std::size_t n = std::max<std::size_t>(shape.trust_table, 1);
    core::TrustManager table(s.effective_trust());
    for (std::size_t i = 0; i < n; ++i) {
        const auto node = static_cast<core::NodeId>(i);
        if (i % 3 == 0) {
            table.judge_faulty(node);
        } else {
            table.judge_correct(node);
        }
    }
    std::size_t restored = 0;
    const double sec = seconds_per_op(static_cast<double>(kOps), [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            const core::TrustCheckpoint ckpt = table.checkpoint();
            restored += core::TrustManager::restore(ckpt).tracked();
        }
    });
    Probe p;
    p.value = sec * 1e6;
    p.unit = "us";
    p.shape = describe({{"trust_table", static_cast<double>(n)}});
    p.shape_ok = restored == n * kBlocks * kOps;
    return p;
}

}  // namespace tibbench
