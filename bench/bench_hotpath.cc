// Microbenchmarks of the hot paths this tree optimised, each measured
// against an in-file re-implementation of the previous design (pre-arena,
// pre-fan-out, pre-memoisation, pre-index) so the speedup is
// visible in one run:
//
//   event_queue_churn   — push/pop through sim::EventQueue (slab arena +
//                         small-buffer callbacks) vs. the historical
//                         std::function queue whose actions_/dead_ vectors
//                         grew monotonically.
//   event_queue_cancel  — same, with half of each batch cancelled by id.
//   broadcast_fanout_105 — one 105-receiver broadcast per round, drained
//                         with 650 far-future timers parked in the queue
//                         (the fig4_fanout queue depth): one fan-out entry
//                         (EventQueue::push_fanout) vs. the previous design,
//                         one pushed delivery closure per receiver sharing
//                         the packet body.
//   prescheduled_arrivals_2000 — 2000 arrivals scheduled up front, each
//                         setting off ~100 short timers as it fires (the
//                         binary_failover shape): one fan-out stream, as
//                         sensor::EventGenerator schedules its events, vs.
//                         one pushed timer per arrival. ops are pops.
//   cti_sum             — core::TrustManager::cumulative_ti (dense cells,
//                         memoised exp) vs. unordered_map + exp per query.
//   binary_scoring      — exp::detail::score_binary (the decision log
//                         ordered once, one window lookup per event) vs.
//                         the scan of the whole log per event, on a
//                         binary_failover-shaped log (2000 events, 4400
//                         decisions); ops are events.
//   broadcast_plan_105  — net::Channel::broadcast (the sender's cached
//                         plan, already in (delay, id) order) vs. the
//                         per-send walk: distances to every endpoint in
//                         id order, a stable sort by delay, then a coin
//                         and a staged delivery per receiver. 105
//                         receivers plus 15 out of range; ops are
//                         deliveries.
//   decision_delivery_105 — one CH decision body per round delivered
//                         to 105 sensor::SensorNodes, which look up their
//                         own verdict in the body's verdict index (built
//                         once per body), vs. the previous receivers, which
//                         scanned both judgement lists for their id. Each
//                         body names 11 of the 105 (the fig4_fanout
//                         shape); ops are deliveries.
//   report_hop          — a relay envelope sent to a CH through
//                         net::Radio and the CH's ack sent back, the
//                         binary_failover hop: the payload moves once,
//                         into the send's pooled body, vs. the previous
//                         Radio::send, which assembled a Packet around
//                         it and passed that by value to
//                         Channel::unicast(Packet) (three moves, three
//                         moved-from destructions). ops are sends.
//   location_decide_100 — core::LocationArbiter::decide (dense epoch-
//                         stamped marks) vs. the same decision with the
//                         two per-call std::unordered_sets, on a
//                         100-node field with one event per window.
//   event_clusterer_*   — core::EventClusterer::cluster vs. the paper-
//                         literal check::ref_cluster, on windows of 1 and
//                         5 events (12 noisy reports each).
//
// Every pair runs the same deterministic workload and must produce a
// bit-identical checksum — the optimisations are output-preserving by
// contract, and this bench doubles as a spot check of that contract.
//
// Run in a Release build (see docs/PERFORMANCE.md):
//
//   ./build/bench/bench_hotpath --json BENCH_HOTPATH.json
//
// The artifact always carries the optional `timing` block (wall time, peak
// RSS) — the numbers are machine-dependent, so committed baselines are
// compared non-gating in CI.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/reference.h"
#include "cluster/cluster_head.h"
#include "core/event_clusterer.h"
#include "core/location_arbiter.h"
#include "core/trust.h"
#include "exp/bench_io.h"
#include "exp/scoring.h"
#include "net/channel.h"
#include "net/packet.h"
#include "net/radio.h"
#include "sensor/event_generator.h"
#include "sensor/fault_model.h"
#include "sensor/sensor_node.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/vec2.h"

namespace {

using namespace tibfit;

// Defeats dead-code elimination of the workload checksums.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Legacy reference implementations (the pre-optimisation designs, verbatim
// in shape; see docs/PERFORMANCE.md for the history).
// ---------------------------------------------------------------------------

/// The historical event queue: one heap-allocating std::function plus a
/// dead_ flag per event *ever pushed* — storage grows with total events,
/// not concurrent events.
class LegacyEventQueue {
  public:
    using Action = std::function<void()>;

    std::uint64_t push(double at, Action action) {
        const std::uint64_t id = actions_.size();
        actions_.push_back(std::move(action));
        dead_.push_back(0);
        heap_.push_back(Entry{at, next_seq_++, id});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        ++live_;
        return id;
    }

    bool cancel(std::uint64_t id) {
        if (id >= dead_.size() || dead_[id]) return false;
        dead_[id] = 1;
        --live_;
        return true;
    }

    bool empty() const { return live_ == 0; }

    void run_next(double& now) {
        for (;;) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            const Entry e = heap_.back();
            heap_.pop_back();
            if (dead_[e.id]) continue;
            dead_[e.id] = 1;
            --live_;
            now = e.at;
            Action action = std::move(actions_[e.id]);
            action();
            return;
        }
    }

  private:
    struct Entry {
        double at;
        std::uint64_t seq;
        std::uint64_t id;
        bool operator>(const Entry& o) const {
            if (at != o.at) return at > o.at;
            return seq > o.seq;
        }
    };

    std::vector<Entry> heap_;
    std::vector<Action> actions_;
    std::vector<char> dead_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
};

/// The historical trust table: node -> accumulator in an unordered_map,
/// with exp(-lambda*v) recomputed on every ti query.
class LegacyTrustTable {
  public:
    explicit LegacyTrustTable(core::TrustParams p) : params_(p) {}

    void judge_correct(core::NodeId n) { table_[n].record_correct(params_); }
    void judge_faulty(core::NodeId n) { table_[n].record_faulty(params_); }

    double cumulative_ti(const std::vector<core::NodeId>& nodes) const {
        double s = 0.0;
        for (core::NodeId n : nodes) {
            const auto it = table_.find(n);
            s += it == table_.end() ? 1.0 : it->second.ti(params_);
        }
        return s;
    }

  private:
    core::TrustParams params_;
    std::unordered_map<core::NodeId, core::TrustIndex> table_;
};

/// The broadcast path before per-sender plans: every send walks all
/// endpoints in id order, measures each distance, sorts the in-range
/// receivers by delay (stable, so ties keep id order), then draws each
/// receiver's loss coin and stages its delivery. That is net::Channel's
/// (delay, id) order, so both draw the same coins.
class LegacyBroadcaster {
  public:
    LegacyBroadcaster(sim::Simulator& sim, util::Rng rng, net::ChannelParams params)
        : sim_(&sim), rng_(rng), params_(params) {}

    void attach(sim::Process& process, const util::Vec2& position, double range) {
        endpoints_[process.id()] = Endpoint{&process, position, range};
    }

    std::size_t broadcast(net::Packet packet) {
        const Endpoint& src = endpoints_.at(packet.src);
        packet.sent_at = sim_->now();
        packet.dst = net::kBroadcast;
        auto body = std::make_shared<net::Packet>(std::move(packet));
        hops_.clear();
        for (auto& [id, ep] : endpoints_) {
            if (id == body->src) continue;
            const double dist = util::distance(src.position, ep.position);
            if (dist > src.range) {
                ++out_of_range_;
                continue;
            }
            const double delay = params_.base_latency + dist / params_.propagation_speed + 0.0;
            hops_.push_back(Hop{ep.process, dist, delay});
        }
        std::stable_sort(hops_.begin(), hops_.end(),
                         [](const Hop& a, const Hop& b) { return a.delay < b.delay; });
        staged_.clear();
        for (const Hop& hop : hops_) {
            if (rng_.chance(params_.drop_probability)) continue;
            staged_.push_back(sim::FanoutItem{sim_->now() + hop.delay, hop.process,
                                              1.0 / (1.0 + hop.dist * hop.dist)});
        }
        sim_->schedule_fanout(
            [](void* b, void* process, double rssi) {
                auto* p = static_cast<net::Packet*>(b);
                p->rssi = rssi;
                static_cast<sim::Process*>(process)->handle_packet(*p);
            },
            std::move(body), staged_);
        return staged_.size();
    }

    std::size_t out_of_range() const { return out_of_range_; }

  private:
    struct Endpoint {
        sim::Process* process;
        util::Vec2 position;
        double range;
    };
    struct Hop {
        sim::Process* process;
        double dist;
        double delay;
    };

    sim::Simulator* sim_;
    util::Rng rng_;
    net::ChannelParams params_;
    std::map<sim::ProcessId, Endpoint> endpoints_;
    std::vector<Hop> hops_;
    std::vector<sim::FanoutItem> staged_;
    std::size_t out_of_range_ = 0;
};

/// LocationArbiter::decide before the dense marks (TrustIndex policy, plain
/// cg, trust updates applied): a hash set deduplicates the reporters, and
/// another per cluster answers "did this node report?" for every node.
std::vector<core::LocationDecision> legacy_location_decide(
    core::TrustManager& trust, const core::EventClusterer& clusterer, double sensing_radius,
    std::span<const core::EventReport> reports, std::span<const util::Vec2> node_positions) {
    std::vector<std::size_t> kept;
    {
        std::unordered_set<core::NodeId> seen;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            if (!reports[i].has_location()) continue;
            if (reports[i].reporter >= node_positions.size()) continue;
            if (trust.is_isolated(reports[i].reporter)) continue;
            if (seen.insert(reports[i].reporter).second) kept.push_back(i);
        }
    }
    std::vector<util::Vec2> locations;
    locations.reserve(kept.size());
    for (std::size_t i : kept) locations.push_back(*reports[i].location);
    const auto clusters = clusterer.cluster(locations);

    const double plaus = sensing_radius + clusterer.r_error();
    const double rs2 = sensing_radius * sensing_radius;
    const double plaus2 = plaus * plaus;
    std::vector<core::LocationDecision> out;
    out.reserve(clusters.size());
    for (const auto& cl : clusters) {
        core::LocationDecision d;
        d.location = cl.cg;
        std::unordered_set<core::NodeId> cluster_reporters;
        for (std::size_t m : cl.members) cluster_reporters.insert(reports[kept[m]].reporter);
        for (core::NodeId n = 0; n < node_positions.size(); ++n) {
            if (trust.is_isolated(n)) continue;
            const double d2 = util::distance2(node_positions[n], d.location);
            if (cluster_reporters.count(n) != 0) {
                if (d2 <= plaus2) {
                    d.reporters.push_back(n);
                    d.weight_reporters += trust.ti(n);
                } else {
                    d.thrown_out.push_back(n);
                }
            } else if (d2 <= rs2) {
                d.silent.push_back(n);
                d.weight_silent += trust.ti(n);
            }
        }
        d.event_declared = !d.reporters.empty() && d.weight_reporters >= d.weight_silent;
        const auto& winners = d.event_declared ? d.reporters : d.silent;
        const auto& losers = d.event_declared ? d.silent : d.reporters;
        for (core::NodeId n : winners) trust.judge_correct(n);
        for (core::NodeId n : losers) trust.judge_faulty(n);
        for (core::NodeId n : d.thrown_out) trust.judge_faulty(n);
        out.push_back(std::move(d));
    }
    return out;
}

/// The previous decision handling: the receiver scanned both judgement
/// lists for its own id (SensorNode::handle_packet before the verdict
/// index) and mirrored its TI from every mention.
class LegacyDecisionNode : public sim::Process {
  public:
    LegacyDecisionNode(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}

    void handle_packet(const net::Packet& packet) override {
        if (packet.as<net::RelayEnvelopePayload>() || packet.as<net::RelayAckPayload>()) return;
        if (const auto* d = packet.as<net::DecisionPayload>()) {
            for (core::NodeId n : d->judged_correct) {
                if (n == id()) tracked_.record_correct(params_);
            }
            for (core::NodeId n : d->judged_faulty) {
                if (n == id()) tracked_.record_faulty(params_);
            }
        }
    }

    double tracked_ti() const { return tracked_.ti(params_); }

  private:
    core::TrustParams params_;
    core::TrustIndex tracked_;
};

// ---------------------------------------------------------------------------
// Workloads. Each is templated over the implementation and returns a
// checksum that must agree bit-for-bit between legacy and optimised runs.
// ---------------------------------------------------------------------------

/// Capture of the same shape as the simulator's transmit closures (node +
/// sink pointers, a payload of scalars): 48 bytes — past std::function's
/// small-buffer budget, within EventCallback's.
struct PayloadLike {
    const void* node;
    const void* sink;
    double time;
    double value;
    std::uint64_t event_id;
    std::uint32_t reporter;
};

/// Pre-drawn event times; power-of-two size so the cycling index is a mask,
/// not a division, keeping shared loop overhead out of the comparison.
constexpr std::size_t kTimesSize = 8192;

template <typename Queue>
double queue_churn(std::size_t rounds, std::size_t batch, const std::vector<double>& times) {
    Queue q;
    double acc = 0.0;
    std::size_t t = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t b = 0; b < batch; ++b) {
            const PayloadLike p{&q,
                                &acc,
                                times[t++ & (kTimesSize - 1)],
                                static_cast<double>(b),
                                r,
                                static_cast<std::uint32_t>(b)};
            q.push(p.time, [p, &acc] { acc += p.time + p.value; });
        }
        while (!q.empty()) {
            double at = 0.0;
            q.run_next(at);
            acc += at;
        }
    }
    return acc;
}

/// Timer-reset churn — the simulator's cancel pattern: a pending timeout is
/// cancelled and rescheduled at a new deadline (one fresh action per reset,
/// which is one fresh heap allocation in the legacy design and a recycled
/// arena slot in the optimised one).
template <typename Queue>
double queue_cancel(std::size_t rounds, std::size_t batch, const std::vector<double>& times) {
    Queue q;
    double acc = 0.0;
    std::vector<std::uint64_t> ids;
    std::size_t t = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        ids.clear();
        for (std::size_t b = 0; b < batch; ++b) {
            const PayloadLike p{&q,
                                &acc,
                                times[t++ & (kTimesSize - 1)],
                                static_cast<double>(b),
                                r,
                                static_cast<std::uint32_t>(b)};
            ids.push_back(q.push(p.time, [p, &acc] { acc += p.time + p.value; }));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) {
            q.cancel(ids[i]);
            const PayloadLike p{&q,
                                &acc,
                                times[t++ & (kTimesSize - 1)] + 1000.0,
                                static_cast<double>(i),
                                r,
                                static_cast<std::uint32_t>(i)};
            q.push(p.time, [p, &acc] { acc += p.time + p.value; });
        }
        while (!q.empty()) {
            double at = 0.0;
            q.run_next(at);
            acc += at;
        }
    }
    return acc;
}

/// Broadcast receiver: folds each delivery into an order-sensitive
/// checksum, so both designs must deliver in the same order.
class ChecksumProcess : public sim::Process {
  public:
    ChecksumProcess(sim::Simulator& s, sim::ProcessId id, double* sum)
        : sim::Process(s, id), sum_(sum) {}
    void handle_packet(const net::Packet& p) override {
        *sum_ = *sum_ * 0.75 + static_cast<double>(id()) + p.rssi;
    }

  private:
    double* sum_;
};

/// The receivers of one broadcast, with each one's delay and rssi.
struct BroadcastShape {
    std::vector<sim::Process*> receivers;
    std::vector<double> delays;
    std::vector<double> rssi;
    std::vector<sim::FanoutItem> staged;  ///< reused, like net::Channel's
};

/// The previous design: one delivery closure per receiver, sharing the body.
void send_per_delivery(sim::EventQueue& q, std::shared_ptr<net::Packet> body, double sent,
                       BroadcastShape& shape) {
    for (std::size_t i = 0; i < shape.receivers.size(); ++i) {
        sim::Process* process = shape.receivers[i];
        const double rssi = shape.rssi[i];
        q.push(sent + shape.delays[i], [process, body, rssi] {
            body->rssi = rssi;
            process->handle_packet(*body);
        });
    }
}

/// The fan-out design, as net::Channel schedules a no-airtime send.
void send_fanout(sim::EventQueue& q, std::shared_ptr<net::Packet> body, double sent,
                 BroadcastShape& shape) {
    std::vector<sim::FanoutItem>& items = shape.staged;
    items.clear();
    for (std::size_t i = 0; i < shape.receivers.size(); ++i) {
        items.push_back(sim::FanoutItem{sent + shape.delays[i], shape.receivers[i], shape.rssi[i]});
    }
    q.push_fanout(
        [](void* b, void* process, double rssi) {
            auto* packet = static_cast<net::Packet*>(b);
            packet->rssi = rssi;
            static_cast<sim::Process*>(process)->handle_packet(*packet);
        },
        std::move(body), items);
}

/// One broadcast per round (a fresh body each), drained before the next,
/// with `parked` timers far in the future keeping the queue deep.
template <typename Send>
double broadcast_drain(std::size_t rounds, std::size_t parked, BroadcastShape& shape,
                       Send&& send) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < parked; ++i) q.push(1e12 + static_cast<double>(i), [] {});
    double now = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        send(q, std::make_shared<net::Packet>(), static_cast<double>(r), shape);
        for (std::size_t i = 0; i < shape.receivers.size(); ++i) q.run_next(now);
    }
    return now;
}

/// Pre-scheduled arrivals drained under churn, binary_failover's shape:
/// `arrivals` arrivals one `interval` apart are all scheduled up front, and
/// each one that fires starts `chains` chains of `depth` short timers (the
/// reports, windows and retransmits an event sets off). Every pop folds its
/// time and tag into an FNV-1a hash, so both designs must pop in exactly
/// the same order.
class ArrivalDrain {
  public:
    ArrivalDrain(std::size_t chains, std::size_t depth, const std::vector<double>& delays)
        : chains_(chains), depth_(depth), delays_(delays) {}

    /// The previous design: one timer per arrival.
    void schedule_timers(std::size_t arrivals, double interval) {
        for (std::size_t i = 0; i < arrivals; ++i) {
            sim_.schedule_at(interval * static_cast<double>(i), [this, i] { arrive(i); });
        }
    }

    /// The stream design, as sensor::EventGenerator schedules its events.
    void schedule_stream(std::size_t arrivals, double interval) {
        std::vector<sim::FanoutItem> items;
        for (std::size_t i = 0; i < arrivals; ++i) {
            items.push_back(
                sim::FanoutItem{interval * static_cast<double>(i), this, static_cast<double>(i)});
        }
        sim_.schedule_fanout(
            [](void*, void* drain, double i) {
                static_cast<ArrivalDrain*>(drain)->arrive(static_cast<std::size_t>(i));
            },
            nullptr, items);
    }

    /// Drains the queue; returns the pop-order hash (exact in a double).
    double drain() {
        sim_.run();
        return static_cast<double>(hash_ >> 11);
    }

  private:
    void fold(std::uint64_t tag) {
        std::uint64_t bits = 0;
        const double now = sim_.now();
        std::memcpy(&bits, &now, sizeof bits);
        hash_ = (hash_ ^ bits) * 1099511628211ull;
        hash_ = (hash_ ^ tag) * 1099511628211ull;
    }

    void arrive(std::size_t i) {
        fold(i);
        for (std::size_t c = 0; c < chains_; ++c) tick((i * chains_ + c) << 8, depth_);
    }

    void tick(std::uint64_t tag, std::size_t left) {
        if (left == 0) return;
        const double delay = delays_[next_delay_++ & (kTimesSize - 1)];
        sim_.schedule(delay, [this, tag, left] {
            fold(tag + left);
            tick(tag, left - 1);
        });
    }

    sim::Simulator sim_;
    std::size_t chains_;
    std::size_t depth_;
    const std::vector<double>& delays_;
    std::size_t next_delay_ = 0;
    std::uint64_t hash_ = 14695981039346656037ull;
};

template <typename Trust>
double cti_sum(Trust& trust, const std::vector<core::NodeId>& nodes, std::size_t iters) {
    double acc = 0.0;
    for (std::size_t i = 0; i < iters; ++i) acc += trust.cumulative_ti(nodes);
    return acc;
}

/// Applies the identical judgement stream to either table implementation.
template <typename Trust>
void seed_trust(Trust& trust, const std::vector<core::NodeId>& nodes, util::Rng rng) {
    for (core::NodeId n : nodes) {
        const std::size_t judgements = 20 + rng.uniform_index(60);
        for (std::size_t j = 0; j < judgements; ++j) {
            if (rng.chance(0.3)) {
                trust.judge_faulty(n);
            } else {
                trust.judge_correct(n);
            }
        }
    }
}

// Binary scoring at binary_failover's shape: kScoringEvents events 10 s
// apart, each answered by one window shortly after it, plus false-alarm
// windows between them, kScoringDecisions windows in all, t_out 1 s.
constexpr std::size_t kScoringEvents = 2000;
constexpr std::size_t kScoringDecisions = 4400;
constexpr double kScoringWindow = 1.0;

struct ScoringLog {
    std::vector<sensor::GeneratedEvent> history;
    std::vector<cluster::DecisionRecord> decisions;
};

ScoringLog scoring_log(util::Rng rng) {
    ScoringLog log;
    for (std::size_t e = 0; e < kScoringEvents; ++e) {
        sensor::GeneratedEvent ev;
        ev.id = e;
        ev.time = 5.0 + 10.0 * static_cast<double>(e);
        log.history.push_back(ev);
        cluster::DecisionRecord d;
        d.window_opened = ev.time + rng.uniform(0.0, 0.05);
        d.event_declared = rng.chance(0.97);
        log.decisions.push_back(d);
    }
    while (log.decisions.size() < kScoringDecisions) {
        cluster::DecisionRecord d;
        d.window_opened = 5.0 + 10.0 * static_cast<double>(rng.uniform_index(kScoringEvents)) +
                          10.0 / 3.0 + rng.uniform(0.0, 2.0);
        d.event_declared = rng.chance(0.1);
        log.decisions.push_back(d);
    }
    for (auto& d : log.decisions) d.time = d.window_opened + kScoringWindow;
    std::stable_sort(log.decisions.begin(), log.decisions.end(),
                     [](const auto& a, const auto& b) { return a.time < b.time; });
    return log;
}

double score_checksum(const exp::detail::BinaryScore& s) {
    return static_cast<double>(s.detected) * 1e6 +
           static_cast<double>(s.false_alarm_windows) * 1e3 +
           static_cast<double>(s.phantoms_declared);
}

/// The previous scorer: every event scans the whole log for the first
/// unclaimed decision in its window.
double score_scan(const ScoringLog& log) {
    exp::detail::BinaryScore result;
    const auto& decisions = log.decisions;
    std::vector<bool> decision_matched(decisions.size(), false);
    for (const auto& ev : log.history) {
        bool detected = false;
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            if (decision_matched[d]) continue;
            const double dt = decisions[d].window_opened - ev.time;
            if (dt >= 0.0 && dt <= kScoringWindow) {
                decision_matched[d] = true;
                detected = decisions[d].event_declared;
                break;
            }
        }
        if (detected) ++result.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (decision_matched[d]) continue;
        ++result.false_alarm_windows;
        if (decisions[d].event_declared) ++result.phantoms_declared;
    }
    return score_checksum(result);
}

double score_one_pass(const ScoringLog& log) {
    return score_checksum(exp::detail::score_binary(log.history, log.decisions, kScoringWindow));
}

/// Sends `rounds` broadcasts from node 0 through `medium`, each drained
/// before the next, with `parked` far-future timers keeping the queue as
/// deep as fig4_fanout's. Returns an order-sensitive delivery checksum.
template <typename Medium>
double broadcast_rounds(std::size_t rounds, std::size_t parked,
                        const std::vector<util::Vec2>& positions, double range) {
    sim::Simulator sim;
    Medium medium(sim, util::Rng(42), net::ChannelParams{});
    double sum = 0.0;
    std::vector<std::unique_ptr<ChecksumProcess>> processes;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        processes.push_back(
            std::make_unique<ChecksumProcess>(sim, static_cast<sim::ProcessId>(i), &sum));
        medium.attach(*processes.back(), positions[i], range);
    }
    for (std::size_t i = 0; i < parked; ++i) sim.schedule_at(1e12 + static_cast<double>(i), [] {});
    for (std::size_t r = 0; r < rounds; ++r) {
        net::Packet p;
        p.src = 0;
        p.payload = net::DecisionPayload{};
        sum += static_cast<double>(medium.broadcast(std::move(p)));
        sim.run_until(static_cast<double>(r) + 0.5);
    }
    return sum + static_cast<double>(medium.out_of_range());
}

/// `count` decision broadcasts, each naming `named` distinct ids of
/// 0..receivers-1: the first three quarters judged correct, the rest
/// faulty, each list in ascending id order as a CH announces them.
std::vector<net::Packet> decision_bodies(util::Rng rng, std::size_t count,
                                         std::size_t receivers, std::size_t named) {
    std::vector<core::NodeId> ids(receivers);
    for (std::size_t i = 0; i < receivers; ++i) ids[i] = static_cast<core::NodeId>(i);
    std::vector<net::Packet> bodies(count);
    for (net::Packet& p : bodies) {
        for (std::size_t i = 0; i < named; ++i) {
            std::swap(ids[i], ids[i + rng.uniform_index(receivers - i)]);
        }
        net::DecisionPayload d;
        const auto split = static_cast<std::ptrdiff_t>(named * 3 / 4);
        d.judged_correct.assign(ids.begin(), ids.begin() + split);
        d.judged_faulty.assign(ids.begin() + split,
                               ids.begin() + static_cast<std::ptrdiff_t>(named));
        std::sort(d.judged_correct.begin(), d.judged_correct.end());
        std::sort(d.judged_faulty.begin(), d.judged_faulty.end());
        p.src = static_cast<sim::ProcessId>(receivers);
        p.dst = net::kBroadcast;
        p.payload = std::move(d);
    }
    return bodies;
}

/// Delivers every body to every receiver in turn; each round copies its
/// body first, so an index is built once per body as on the air. Returns
/// the sum of the receivers' tracked TIs.
template <typename Node>
double deliver_decisions(std::size_t receivers, const std::vector<net::Packet>& bodies) {
    sim::Simulator sim;
    net::Channel channel(sim, util::Rng(1));
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::size_t i = 0; i < receivers; ++i) {
        const auto id = static_cast<sim::ProcessId>(i);
        if constexpr (std::is_same_v<Node, sensor::SensorNode>) {
            nodes.push_back(std::make_unique<Node>(
                sim, id, util::Vec2{}, 20.0, net::Radio(channel, id),
                std::make_unique<sensor::CorrectBehavior>(sensor::FaultParams{}), util::Rng(i),
                core::TrustParams{}));
        } else {
            nodes.push_back(std::make_unique<Node>(sim, id));
        }
    }
    for (const net::Packet& heard : bodies) {
        const net::Packet body = heard;
        for (const auto& node : nodes) node->handle_packet(body);
    }
    double acc = 0.0;
    for (const auto& node : nodes) acc += node->tracked_ti();
    return acc;
}

/// The previous net::Radio::send: assembles a Packet around the payload and
/// hands it to Channel::unicast(Packet) by value.
class LegacyRadio {
  public:
    LegacyRadio(net::Channel& channel, sim::ProcessId id) : channel_(&channel), id_(id) {}

    bool send(sim::ProcessId dst, net::Payload payload) {
        net::Packet p;
        p.src = id_;
        p.dst = dst;
        p.payload = std::move(payload);
        return channel_->unicast(std::move(p));
    }

  private:
    net::Channel* channel_;
    sim::ProcessId id_;
};

/// One end of a report hop, sending through `RadioT`: acknowledges every
/// envelope it hears, and folds everything it hears into a checksum.
template <typename RadioT>
class HopEnd : public sim::Process {
  public:
    HopEnd(sim::Simulator& sim, sim::ProcessId id, net::Channel& channel, double* sum)
        : sim::Process(sim, id), radio_(channel, id), sum_(sum) {}

    RadioT& radio() { return radio_; }

    void handle_packet(const net::Packet& p) override {
        *sum_ += p.sent_at + p.rssi;
        if (const auto* env = p.as<net::RelayEnvelopePayload>()) {
            *sum_ += static_cast<double>(env->seq) + env->report.offset.r;
            radio_.send(p.src, net::RelayAckPayload{env->source, env->seq});
        } else if (const auto* ack = p.as<net::RelayAckPayload>()) {
            *sum_ += 2.0 * static_cast<double>(ack->seq);
        }
    }

  private:
    RadioT radio_;
    double* sum_;
};

/// `rounds` report hops over a lossy channel: a sensor sends one relay
/// envelope to its CH, and the CH acknowledges it. Returns an
/// order-sensitive checksum of everything delivered.
template <typename RadioT>
double report_hops(std::size_t rounds) {
    sim::Simulator sim;
    net::Channel channel(sim, util::Rng(7), net::ChannelParams{});
    double sum = 0.0;
    HopEnd<RadioT> sensor(sim, 0, channel, &sum);
    HopEnd<RadioT> ch(sim, 1, channel, &sum);
    channel.attach(sensor, {0.0, 0.0}, 30.0);
    channel.attach(ch, {12.0, 5.0}, 30.0);
    for (std::size_t r = 0; r < rounds; ++r) {
        net::RelayEnvelopePayload env;
        env.source = 0;
        env.final_dst = 1;
        env.seq = static_cast<std::uint32_t>(r);
        env.report.offset = core::PolarOffset{1.0 + static_cast<double>(r % 7), 0.5};
        env.report.positive = r % 3 != 0;
        sum += sensor.radio().send(1, env) ? 1.0 : 0.0;
        sim.run();
    }
    return sum + static_cast<double>(channel.delivered() + channel.dropped());
}

double decisions_checksum(const std::vector<core::LocationDecision>& ds) {
    double acc = 0.0;
    for (const auto& d : ds) {
        acc += d.weight_reporters + 2.0 * d.weight_silent + d.location.x + d.location.y +
               static_cast<double>(d.reporters.size() + 3 * d.silent.size() +
                                   5 * d.thrown_out.size());
    }
    return acc;
}

/// The report windows of a location workload: one event per window on a
/// 100-node field; every event neighbour reports with localisation noise,
/// and every fifth window carries a fabricated report far from the event.
struct LocationWorkload {
    std::vector<util::Vec2> positions;
    std::vector<std::vector<core::EventReport>> windows;
};

LocationWorkload location_workload(util::Rng rng, std::size_t windows, double sensing_radius) {
    LocationWorkload w;
    for (int i = 0; i < 100; ++i) w.positions.push_back(rng.point_in_rect(100, 100));
    for (std::size_t k = 0; k < windows; ++k) {
        const util::Vec2 event = rng.point_in_rect(100, 100);
        std::vector<core::EventReport> reports;
        for (core::NodeId n = 0; n < w.positions.size(); ++n) {
            const bool near = util::distance(w.positions[n], event) <= sensing_radius;
            const bool liar = k % 5 == 0 && n == k % w.positions.size();
            if (!near && !liar) continue;
            core::EventReport r;
            r.reporter = n;
            r.location = liar ? rng.point_in_rect(100, 100) : event + rng.gaussian_offset(1.6);
            reports.push_back(r);
        }
        w.windows.push_back(std::move(reports));
    }
    return w;
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct Measurement {
    double ns_per_op = 0.0;
    double checksum = 0.0;
};

template <typename Body>
double time_once(Body&& body, double& checksum) {
    const auto t0 = std::chrono::steady_clock::now();
    checksum = body();
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + checksum;
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Interleaved best-of-7: each repetition times the legacy body then the
/// optimised body back-to-back, so slow drift in machine load (frequency
/// scaling, co-tenants) hits both sides of the ratio alike; the minimum
/// over repetitions is the least-noise estimate of each, and the workloads
/// are deterministic so every repetition must reproduce the same checksum.
template <typename LegacyBody, typename OptBody>
std::pair<Measurement, Measurement> time_pair(std::size_t ops, LegacyBody&& legacy_body,
                                              OptBody&& opt_body) {
    constexpr int kReps = 7;
    Measurement legacy, opt;
    double legacy_best = 0.0, opt_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const double lns = time_once(legacy_body, legacy.checksum);
        const double ons = time_once(opt_body, opt.checksum);
        if (rep == 0 || lns < legacy_best) legacy_best = lns;
        if (rep == 0 || ons < opt_best) opt_best = ons;
    }
    legacy.ns_per_op = legacy_best / static_cast<double>(ops);
    opt.ns_per_op = opt_best / static_cast<double>(ops);
    return {legacy, opt};
}

class Report {
  public:
    explicit Report(util::Table& t) : t_(t) {}

    /// Emits the legacy/optimised row pair; returns false on a checksum
    /// mismatch (the optimisation failed its output-preservation contract).
    bool pair(const std::string& bench, std::size_t ops, const Measurement& legacy,
              const Measurement& opt) {
        row(bench, "legacy", ops, legacy.ns_per_op, 1.0);
        row(bench, "optimized", ops, opt.ns_per_op, legacy.ns_per_op / opt.ns_per_op);
        if (legacy.checksum != opt.checksum) {
            std::cerr << "bench_hotpath: checksum mismatch on " << bench
                      << " (legacy " << legacy.checksum << " vs optimized " << opt.checksum
                      << ") — the optimised path is NOT output-preserving\n";
            return false;
        }
        return true;
    }

  private:
    void row(const std::string& bench, const char* impl, std::size_t ops, double ns,
             double speedup) {
        t_.row({bench, impl, util::Table::num(static_cast<double>(ops), 0),
                util::Table::num(ns, 1), util::Table::num(1e3 / ns, 2),
                util::Table::num(speedup, 2)});
    }

    util::Table& t_;
};

}  // namespace

int main(int argc, char** argv) {
    exp::BenchIo io("bench_hotpath", argc, argv);
    io.enable_timing();

    // Workload sizes; scale=<f> shrinks/expands everything for smoke runs.
    const double scale = [&io] {
        const double s = io.option("scale", 1.0, "multiplies every workload size (0.2: smoke)");
        return s > 0.0 ? s : 1.0;
    }();
    const auto scaled = [scale](std::size_t n) {
        const auto v = static_cast<std::size_t>(static_cast<double>(n) * scale);
        return v > 0 ? v : std::size_t{1};
    };

    // Batch = events pending at once. At 32, per-event allocation — the
    // thing the arena removes — dominates heap reheapification. (The
    // simulator's traced queues hold more events, 646 for fig4_fanout and
    // 4018 for binary_failover, but fan-outs keep its heap at a few dozen
    // entries.)
    const std::size_t kQueueRounds = scaled(static_cast<std::size_t>(
        std::max(1.0, io.option("queue_rounds", 16000.0, "event-queue rounds, before scale"))));
    const std::size_t kQueueBatch = static_cast<std::size_t>(
        std::max(1.0, io.option("queue_batch", 32.0, "events pending at once per queue round")));
    io.apply();
    const std::size_t kBroadcastRounds = scaled(4000);
    // Timers parked during a broadcast drain: fig4_fanout's traced depth.
    constexpr std::size_t kBroadcastParked = 650;
    const std::size_t kCtiNodes = 100;
    const std::size_t kCtiIters = scaled(100000);

    util::Table t("Hot-path microbenchmarks: legacy vs optimized");
    t.header({"bench", "impl", "ops", "ns_per_op", "Mops_per_sec", "speedup"});
    Report report(t);
    bool ok = true;

    util::Rng rng(20050628);

    // --- Event queue ------------------------------------------------------
    {
        util::Rng stream = rng.stream("queue_times");
        std::vector<double> times(kTimesSize);
        for (double& x : times) x = stream.uniform(0.0, 1000.0);
        const std::size_t ops = kQueueRounds * kQueueBatch * 2;  // push + pop

        auto [churn_legacy, churn_opt] = time_pair(
            ops,
            [&] { return queue_churn<LegacyEventQueue>(kQueueRounds, kQueueBatch, times); },
            [&] { return queue_churn<sim::EventQueue>(kQueueRounds, kQueueBatch, times); });
        ok = report.pair("event_queue_churn", ops, churn_legacy, churn_opt) && ok;

        // push batch + cancel batch/2 + re-push batch/2 + pop batch
        const std::size_t cancel_ops = kQueueRounds * kQueueBatch * 5 / 2;
        auto [cancel_legacy, cancel_opt] = time_pair(
            cancel_ops,
            [&] { return queue_cancel<LegacyEventQueue>(kQueueRounds, kQueueBatch, times); },
            [&] { return queue_cancel<sim::EventQueue>(kQueueRounds, kQueueBatch, times); });
        ok = report.pair("event_queue_cancel", cancel_ops, cancel_legacy, cancel_opt) && ok;
    }

    // --- Broadcast fan-out -------------------------------------------------
    {
        // 105 receivers at distances up to 40 (the Fig. 4 lattice's radio
        // reach), with the channel's delay and rssi formulas.
        constexpr std::size_t kReceivers = 105;
        util::Rng stream = rng.stream("broadcast");
        sim::Simulator owner;  // the receivers' nominal simulator; never run
        double sum = 0.0;
        std::vector<std::unique_ptr<ChecksumProcess>> processes;
        BroadcastShape shape;
        for (std::size_t i = 0; i < kReceivers; ++i) {
            processes.push_back(std::make_unique<ChecksumProcess>(
                owner, static_cast<sim::ProcessId>(i + 1), &sum));
            const double dist = stream.uniform(0.0, 40.0);
            shape.receivers.push_back(processes.back().get());
            shape.delays.push_back(1e-4 + dist / 3e4);
            shape.rssi.push_back(1.0 / (1.0 + dist * dist));
        }
        const std::size_t ops = kBroadcastRounds * kReceivers;  // one delivery each
        const auto run = [&](auto send) {
            sum = 0.0;
            const double end = broadcast_drain(kBroadcastRounds, kBroadcastParked, shape, send);
            return sum + end;
        };
        const auto [legacy, opt] = time_pair(ops, [&] { return run(send_per_delivery); },
                                             [&] { return run(send_fanout); });
        ok = report.pair("broadcast_fanout_105", ops, legacy, opt) && ok;
    }

    // --- Pre-scheduled arrivals ----------------------------------------------
    {
        // binary_failover's shape: 2000 events 10 s apart, each setting off
        // about 100 short-lived events (8 chains of 12).
        constexpr std::size_t kArrivals = 2000, kChains = 8, kDepth = 12;
        constexpr double kInterval = 10.0;
        util::Rng stream = rng.stream("arrivals");
        std::vector<double> delays(kTimesSize);
        for (double& d : delays) d = stream.uniform(0.0, 0.05);
        const std::size_t drains = scaled(4);
        const std::size_t ops = drains * kArrivals * (1 + kChains * kDepth);  // pops
        const auto run = [&](auto schedule) {
            double acc = 0.0;
            for (std::size_t d = 0; d < drains; ++d) {
                ArrivalDrain drain(kChains, kDepth, delays);
                schedule(drain);
                acc += drain.drain();
            }
            return acc;
        };
        const auto timers = [&](ArrivalDrain& d) { d.schedule_timers(kArrivals, kInterval); };
        const auto stream_of = [&](ArrivalDrain& d) { d.schedule_stream(kArrivals, kInterval); };
        const auto [legacy, opt] =
            time_pair(ops, [&] { return run(timers); }, [&] { return run(stream_of); });
        ok = report.pair("prescheduled_arrivals_2000", ops, legacy, opt) && ok;
    }

    // --- CTI sum ----------------------------------------------------------
    {
        core::TrustParams params;  // paper defaults: lambda 0.25, f_r 0.1
        std::vector<core::NodeId> nodes(kCtiNodes);
        for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = static_cast<core::NodeId>(i);

        LegacyTrustTable legacy_table(params);
        core::TrustManager opt_table(params);
        seed_trust(legacy_table, nodes, rng.stream("judgements"));
        seed_trust(opt_table, nodes, rng.stream("judgements"));

        const auto [legacy, opt] =
            time_pair(kCtiIters, [&] { return cti_sum(legacy_table, nodes, kCtiIters); },
                      [&] { return cti_sum(opt_table, nodes, kCtiIters); });
        ok = report.pair("cti_sum_100", kCtiIters, legacy, opt) && ok;
    }

    // --- Binary scoring ---------------------------------------------------
    {
        const ScoringLog log = scoring_log(rng.stream("scoring"));
        const auto [legacy, opt] = time_pair(kScoringEvents, [&] { return score_scan(log); },
                                             [&] { return score_one_pass(log); });
        ok = report.pair("binary_scoring", kScoringEvents, legacy, opt) && ok;
    }

    // --- Broadcast plan -----------------------------------------------------
    {
        // The sender at the origin reaches 105 receivers within radius 40
        // (the Fig. 4 lattice's reach); 15 more lie out of range.
        constexpr std::size_t kInRange = 105, kOutOfRange = 15;
        constexpr double kRange = 40.0;
        util::Rng stream = rng.stream("broadcast_plan");
        std::vector<util::Vec2> positions{{0.0, 0.0}};
        for (std::size_t i = 0; i < kInRange + kOutOfRange; ++i) {
            const double r = i < kInRange ? stream.uniform(1.0, kRange)
                                          : stream.uniform(kRange + 1.0, 2.0 * kRange);
            positions.push_back(util::Vec2::from_polar(r, stream.uniform(0.0, 6.283185307179586)));
        }
        const std::size_t ops = kBroadcastRounds * kInRange;  // deliveries, before loss
        const auto [legacy, opt] = time_pair(
            ops,
            [&] {
                return broadcast_rounds<LegacyBroadcaster>(kBroadcastRounds, kBroadcastParked,
                                                           positions, kRange);
            },
            [&] {
                return broadcast_rounds<net::Channel>(kBroadcastRounds, kBroadcastParked,
                                                      positions, kRange);
            });
        ok = report.pair("broadcast_plan_105", ops, legacy, opt) && ok;
    }

    // --- Decision delivery --------------------------------------------------
    {
        // A fig4_fanout decision: 105 receivers, 11 of them named.
        constexpr std::size_t kReceivers = 105, kNamed = 11;
        const std::vector<net::Packet> bodies =
            decision_bodies(rng.stream("decisions"), kBroadcastRounds, kReceivers, kNamed);
        const std::size_t ops = kBroadcastRounds * kReceivers;
        const auto [legacy, opt] = time_pair(
            ops, [&] { return deliver_decisions<LegacyDecisionNode>(kReceivers, bodies); },
            [&] { return deliver_decisions<sensor::SensorNode>(kReceivers, bodies); });
        ok = report.pair("decision_delivery_105", ops, legacy, opt) && ok;
    }

    // --- Report hop ------------------------------------------------------------
    {
        const std::size_t rounds = scaled(200000);
        const std::size_t ops = 2 * rounds;  // an envelope and its ack per round
        const auto [legacy, opt] =
            time_pair(ops, [&] { return report_hops<LegacyRadio>(rounds); },
                      [&] { return report_hops<net::Radio>(rounds); });
        ok = report.pair("report_hop", ops, legacy, opt) && ok;
    }

    // --- Location decision --------------------------------------------------
    {
        const double kSensing = 20.0, kRerr = 5.0;
        const std::size_t kWindows = 256;
        const std::size_t iters = scaled(20000);
        const LocationWorkload w = location_workload(rng.stream("location"), kWindows, kSensing);
        const core::TrustParams params;  // Table 2: lambda 0.25, f_r 0.1, removal 0.05
        const auto run = [&](auto decide) {
            double acc = 0.0;
            for (std::size_t i = 0; i < iters; ++i) {
                acc += decisions_checksum(decide(w.windows[i % kWindows]));
            }
            return acc;
        };
        const auto [legacy, opt] = time_pair(
            iters,
            [&] {
                core::TrustManager trust(params);
                const core::EventClusterer clusterer(kRerr);
                return run([&](const std::vector<core::EventReport>& reports) {
                    return legacy_location_decide(trust, clusterer, kSensing, reports,
                                                  w.positions);
                });
            },
            [&] {
                core::TrustManager trust(params);
                core::LocationArbiter arbiter(trust, core::DecisionPolicy::TrustIndex, kSensing,
                                              kRerr);
                return run([&](const std::vector<core::EventReport>& reports) {
                    return arbiter.decide(reports, w.positions, true);
                });
            });
        ok = report.pair("location_decide_100", iters, legacy, opt) && ok;
    }

    // --- Event clusterer ----------------------------------------------------
    for (const std::size_t events : {std::size_t{1}, std::size_t{5}}) {
        const double kRerr = 5.0;
        util::Rng stream = rng.stream("clusterer", events);
        std::vector<util::Vec2> pts;
        for (std::size_t e = 0; e < events; ++e) {
            const util::Vec2 c = stream.point_in_rect(100, 100);
            for (int i = 0; i < 12; ++i) pts.push_back(c + stream.gaussian_offset(2.0));
        }
        const std::size_t iters = scaled(events == 1 ? 100000 : 20000);
        const auto checksum = [](const std::vector<core::EventCluster>& cs) {
            double acc = 0.0;
            for (const auto& c : cs) {
                acc += c.cg.x + 3.0 * c.cg.y + static_cast<double>(c.members.size());
            }
            return acc;
        };
        const core::EventClusterer clusterer(kRerr);
        const auto [legacy, opt] = time_pair(
            iters,
            [&] {
                double acc = 0.0;
                for (std::size_t i = 0; i < iters; ++i) {
                    acc += checksum(check::ref_cluster(pts, kRerr, clusterer.max_rounds()));
                }
                return acc;
            },
            [&] {
                double acc = 0.0;
                for (std::size_t i = 0; i < iters; ++i) acc += checksum(clusterer.cluster(pts));
                return acc;
            });
        ok = report.pair("event_clusterer_" + std::to_string(events), iters, legacy, opt) && ok;
    }

    io.emit(t);
    const int rc = io.finish();
    return ok ? rc : 1;
}
