#include "exp/scenario.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.h"

namespace tibfit::exp {

namespace {

// Each name field's values, as the document spells them.
template <typename E>
using Names = std::pair<E, const char*>;
constexpr Names<Scenario::Kind> kKinds[] = {{Scenario::Kind::Binary, "binary"},
                                            {Scenario::Kind::Location, "location"}};
constexpr Names<core::DecisionPolicy> kPolicies[] = {
    {core::DecisionPolicy::TrustIndex, "trust_index"},
    {core::DecisionPolicy::MajorityVote, "majority_vote"}};
constexpr Names<sensor::NodeClass> kFaultLevels[] = {
    {sensor::NodeClass::Correct, "correct"}, {sensor::NodeClass::Level0, "level0"},
    {sensor::NodeClass::Level1, "level1"}, {sensor::NodeClass::Level2, "level2"}};
constexpr Names<check::Mode> kCheckModes[] = {
    {check::Mode::Off, "off"}, {check::Mode::Shadow, "shadow"}, {check::Mode::Assert, "assert"}};

void check_unit(std::vector<std::string>& errors, const char* what, double p) {
    if (!(p >= 0.0 && p <= 1.0)) {  // also rejects NaN
        errors.push_back(std::string("scenario: ") + what + " outside [0, 1]");
    }
}

void check_finite_non_negative(std::vector<std::string>& errors, const char* what, double v) {
    if (!(std::isfinite(v) && v >= 0.0)) {
        errors.push_back(std::string("scenario: ") + what + " must be finite and >= 0");
    }
}

void check_at_most(std::vector<std::string>& errors, const char* what, std::size_t v,
                   std::size_t max) {
    if (v > max) {
        errors.push_back(std::string("scenario: ") + what + " must be <= " + std::to_string(max));
    }
}

}  // namespace

Scenario Scenario::binary_defaults() {
    Scenario s;
    s.kind = Kind::Binary;
    s.engine.trust.lambda = 0.1;       // Table 1
    s.engine.trust.fault_rate = -1.0;  // "f_r equals the NER" sentinel
    s.engine.trust.removal_ti = 0.0;   // isolation off in Experiment 1
    s.deployment.field = 40.0;
    return s;
}

Scenario Scenario::location_defaults() {
    Scenario s;
    s.kind = Kind::Location;
    // TrustParams defaults are already Table 2 (lambda 0.25, f_r 0.1,
    // removal 0.05); location-model misses come from sigma + channel, not
    // a binary NER.
    s.faults.natural_error_rate = 0.0;
    s.mobility.tick = 1.0;
    return s;
}

core::TrustParams Scenario::effective_trust() const {
    core::TrustParams t = engine.trust;
    if (kind == Kind::Binary && t.fault_rate < 0.0) t.fault_rate = faults.natural_error_rate;
    return t;
}

std::vector<std::string> Scenario::validate() const {
    std::vector<std::string> errors;

    // Protocol / trust. Range checks live on TrustParams itself so direct
    // core users get the same rejection table (removal_ti in [0, 1), ...).
    for (const std::string& e : engine.trust.validate()) errors.push_back("scenario: " + e);
    if (kind == Kind::Location && engine.trust.fault_rate < 0.0) {
        errors.push_back("scenario: location runs need an explicit trust fault_rate >= 0");
    }
    if (engine.t_out <= 0.0) errors.push_back("scenario: t_out must be > 0");
    if (engine.r_error <= 0.0) errors.push_back("scenario: r_error must be > 0");
    if (engine.r_error > deployment.field) {
        errors.push_back("scenario: r_error exceeds the deployment extent");
    }
    if (deployment.field <= 0.0) errors.push_back("scenario: deployment field must be > 0");
    if (deployment.sensing_radius <= 0.0) {
        errors.push_back("scenario: sensing_radius must be > 0");
    }

    // Channel / transport.
    // Non-finite channel timing would reach the event queue as a NaN or
    // infinite time: `util::Config` parses "nan" and "inf".
    check_unit(errors, "channel drop_probability", channel.drop_probability);
    check_finite_non_negative(errors, "channel base_latency", channel.base_latency);
    if (!(std::isfinite(channel.propagation_speed) && channel.propagation_speed > 0.0)) {
        errors.push_back("scenario: channel propagation_speed must be finite and > 0");
    }
    check_finite_non_negative(errors, "channel airtime", channel.airtime);
    if (transport.max_retries > 0 && transport.ack_timeout <= 0.0) {
        errors.push_back("scenario: transport retry budget with zero ack_timeout");
    }
    if (transport.ttl == 0) errors.push_back("scenario: transport ttl must be >= 1");

    // Fault behaviours.
    check_unit(errors, "natural_error_rate", faults.natural_error_rate);
    check_unit(errors, "missed_alarm_rate", faults.missed_alarm_rate);
    check_unit(errors, "false_alarm_rate", faults.false_alarm_rate);
    check_unit(errors, "faulty_drop_rate", faults.faulty_drop_rate);
    if (faults.correct_sigma < 0.0 || faults.faulty_sigma < 0.0) {
        errors.push_back("scenario: negative report sigma");
    }

    // Mobility.
    if (mobility.speed_min < 0.0) errors.push_back("scenario: negative mobility speed_min");
    if (mobility.speed_min > mobility.speed_max) {
        errors.push_back("scenario: mobility speed_min > speed_max");
    }

    // Workload shape.
    if (kind == Kind::Binary) {
        if (binary.n_nodes == 0) errors.push_back("scenario: binary n_nodes must be >= 1");
        if (binary.events == 0) errors.push_back("scenario: binary events must be >= 1");
        check_at_most(errors, "binary n_nodes", binary.n_nodes, kMaxNodes);
        check_at_most(errors, "binary events", binary.events, kMaxEvents);
        if (binary.event_interval <= 0.0) {
            errors.push_back("scenario: binary event_interval must be > 0");
        }
        check_unit(errors, "binary pct_faulty", binary.pct_faulty);
        if (binary.false_alarm_spread_touts < 0.0) {
            errors.push_back("scenario: negative false_alarm_spread_touts");
        }
        if (!campaign.failovers.empty() && binary.use_shadows) {
            errors.push_back(
                "scenario: CH failover and shadow CHs are mutually exclusive (shadows "
                "monitor the fixed CH identity)");
        }
    } else {
        if (location.n_nodes == 0) errors.push_back("scenario: location n_nodes must be >= 1");
        if (location.events == 0) errors.push_back("scenario: location events must be >= 1");
        check_at_most(errors, "location n_nodes", location.n_nodes, kMaxNodes);
        check_at_most(errors, "location n_ch", location.n_ch, kMaxNodes);
        check_at_most(errors, "location events", location.events, kMaxEvents);
        check_at_most(errors, "location burst", location.burst, kMaxEvents);
        check_at_most(errors, "location epoch_events", location.epoch_events, kMaxEvents);
        check_at_most(errors, "location decay_epoch_events", location.decay_epoch_events,
                      kMaxEvents);
        if (location.event_interval <= 0.0) {
            errors.push_back("scenario: location event_interval must be > 0");
        }
        check_unit(errors, "location pct_faulty", location.pct_faulty);
        // A jitter <= 0 means none (SensorNode draws only when > 0).
        if (!std::isfinite(location.tx_jitter)) {
            errors.push_back("scenario: location tx_jitter must be finite");
        }
        if (location.n_ch == 0) errors.push_back("scenario: location n_ch must be >= 1");
        if (location.burst == 0) errors.push_back("scenario: location burst must be >= 1");
        if (location.multihop && location.radio_range <= 0.0) {
            errors.push_back("scenario: multihop radio_range must be > 0");
        }
        if (location.mobile && mobility.tick <= 0.0) {
            errors.push_back("scenario: mobile runs need mobility tick > 0");
        }
        if (location.decay) {
            if (location.decay_step <= 0.0) errors.push_back("scenario: decay_step must be > 0");
            if (location.decay_final < location.decay_initial) {
                errors.push_back("scenario: decay_final < decay_initial");
            }
            if (location.decay_epoch_events == 0) {
                errors.push_back("scenario: decay_epoch_events must be >= 1");
            }
            // The decay schedule runs (epochs x decay_epoch_events) events,
            // whatever `events` says. A step <= 0 is reported above; a NaN
            // anywhere fails the comparison.
            const double epochs =
                std::round((location.decay_final - location.decay_initial) / location.decay_step) +
                1.0;
            if (!(location.decay_step <= 0.0) &&
                !(epochs * static_cast<double>(location.decay_epoch_events) <=
                  static_cast<double>(kMaxEvents))) {
                errors.push_back("scenario: decay schedule runs more than " +
                                 std::to_string(kMaxEvents) + " events");
            }
        }
        if (!campaign.failovers.empty()) {
            errors.push_back(
                "scenario: CH failover campaigns are binary-kind only (location runs "
                "already rotate leadership; use rotation_period)");
        }
    }

    for (auto& e : campaign.validate()) errors.push_back(std::move(e));
    return errors;
}

namespace {

// The serialized fields, declared once: write_json walks them with a
// JsonOut, scenario_from_json with a JsonIn. The walk order is the
// document's key order.
template <typename Io, typename S>
void walk(Io& io, S& s) {
    io.name("kind", s.kind, kKinds);
    io.count("seed", s.seed);
    io.section("engine", [&] {
        io.name("policy", s.engine.policy, kPolicies);
        io.number("sensing_radius", s.engine.sensing_radius);
        io.number("r_error", s.engine.r_error);
        io.number("t_out", s.engine.t_out);
        io.section("trust", [&] {
            io.number("lambda", s.engine.trust.lambda);
            io.number("fault_rate", s.engine.trust.fault_rate);
            io.number("removal_ti", s.engine.trust.removal_ti);
        });
        io.flag("collusion_defense", s.engine.collusion_defense);
        io.flag("trust_weighted_location", s.engine.trust_weighted_location);
    });
    io.section("channel", [&] {
        io.number("drop_probability", s.channel.drop_probability);
        io.number("base_latency", s.channel.base_latency);
        io.number("propagation_speed", s.channel.propagation_speed);
        io.number("airtime", s.channel.airtime);
    });
    io.section("transport", [&] {
        io.number("ack_timeout", s.transport.ack_timeout);
        io.count("max_retries", s.transport.max_retries);
        io.count("ttl", s.transport.ttl);
    });
    io.section("check", [&] {
        io.name("mode", s.check.mode, kCheckModes);
    });
    io.section("deployment", [&] {
        io.number("field", s.deployment.field);
        io.number("sensing_radius", s.deployment.sensing_radius);
    });
    io.section("faults", [&] {
        io.number("natural_error_rate", s.faults.natural_error_rate);
        io.number("correct_sigma", s.faults.correct_sigma);
        io.number("missed_alarm_rate", s.faults.missed_alarm_rate);
        io.number("false_alarm_rate", s.faults.false_alarm_rate);
        io.number("faulty_sigma", s.faults.faulty_sigma);
        io.number("faulty_drop_rate", s.faults.faulty_drop_rate);
        io.number("lower_ti", s.faults.lower_ti);
        io.number("upper_ti", s.faults.upper_ti);
        io.number("collusion_jitter", s.faults.collusion_jitter);
    });
    io.section("mobility", [&] {
        io.number("speed_min", s.mobility.speed_min);
        io.number("speed_max", s.mobility.speed_max);
        io.number("pause", s.mobility.pause);
        io.number("tick", s.mobility.tick);
    });
    io.campaign("campaign", s.campaign);
    io.section("binary", [&] {
        io.count("n_nodes", s.binary.n_nodes);
        io.number("pct_faulty", s.binary.pct_faulty);
        io.number("false_alarm_spread_touts", s.binary.false_alarm_spread_touts);
        io.count("events", s.binary.events);
        io.number("event_interval", s.binary.event_interval);
        io.flag("use_shadows", s.binary.use_shadows);
        io.flag("corrupt_ch", s.binary.corrupt_ch);
        io.flag("reliable_reports", s.binary.reliable_reports);
    });
    io.section("location", [&] {
        io.count("n_nodes", s.location.n_nodes);
        io.flag("grid_layout", s.location.grid_layout);
        io.number("pct_faulty", s.location.pct_faulty);
        io.name("fault_level", s.location.fault_level, kFaultLevels);
        io.flag("multihop", s.location.multihop);
        io.number("radio_range", s.location.radio_range);
        io.flag("mobile", s.location.mobile);
        io.count("n_ch", s.location.n_ch);
        io.count("rotation_period", s.location.rotation_period);
        io.count("events", s.location.events);
        io.number("event_interval", s.location.event_interval);
        io.count("burst", s.location.burst);
        io.number("tx_jitter", s.location.tx_jitter);
        io.flag("decay", s.location.decay);
        io.number("decay_initial", s.location.decay_initial);
        io.number("decay_step", s.location.decay_step);
        io.number("decay_final", s.location.decay_final);
        io.count("decay_epoch_events", s.location.decay_epoch_events);
        io.count("epoch_events", s.location.epoch_events);
        io.flag("keep_trace", s.location.keep_trace);
    });
}

struct JsonOut {
    obs::json::Writer& w;

    void number(const char* key, double v) { w.field(key, v); }
    void flag(const char* key, bool v) { w.field(key, v); }
    template <typename T>
    void count(const char* key, T v) {
        w.field(key, static_cast<std::uint64_t>(v));
    }
    template <typename E, std::size_t N>
    void name(const char* key, E v, const Names<E> (&names)[N]) {
        for (const auto& [e, text] : names) {
            if (e == v) w.field(key, text);
        }
    }
    template <typename Body>
    void section(const char* key, Body body) {
        w.key(key);
        w.begin_object();
        body();
        w.end_object();
    }
    void campaign(const char* key, const inject::CampaignSpec& spec) {
        w.key(key);
        inject::write_json(spec, w);
    }
};

struct JsonIn {
    const obs::json::Fields* f;

    void number(const char* key, double& v) { f->read(key, v); }
    void flag(const char* key, bool& v) { f->read(key, v); }
    template <typename T>
    void count(const char* key, T& v) {
        f->read_count(key, v);
    }
    template <typename E, std::size_t N>
    void name(const char* key, E& v, const Names<E> (&names)[N]) {
        const obs::json::Value* given = f->find(key);
        if (!given) return;
        std::string known;
        for (const auto& [e, text] : names) {
            if (given->is_string() && given->as_string() == text) {
                v = e;
                return;
            }
            known += (known.empty() ? "" : ", ") + std::string(text);
        }
        f->reject(key, given->is_string() ? "one of " + known + ", got '" + given->as_string() + "'"
                                          : "a string, one of " + known);
    }
    template <typename Body>
    void section(const char* key, Body body) {
        const auto sub = f->object(key);
        if (!sub) return;
        const obs::json::Fields* outer = f;
        f = &*sub;
        body();
        sub->reject_unread();
        f = outer;
    }
    void campaign(const char* key, inject::CampaignSpec& spec) {
        if (const auto* v = f->find(key)) spec = inject::campaign_from_json(*v);
    }
};

}  // namespace

void write_json(const Scenario& s, obs::json::Writer& w) {
    JsonOut out{w};
    w.begin_object();
    walk(out, s);
    w.end_object();
}

void apply_json(Scenario& s, const obs::json::Value& v) {
    const obs::json::Fields root(v, "scenario");
    JsonIn in{&root};
    walk(in, s);
    root.reject_unread();
}

Scenario scenario_from_json(const obs::json::Value& v) {
    const obs::json::Fields root(v, "scenario");
    Scenario::Kind kind = Scenario::Kind::Binary;
    JsonIn{&root}.name("kind", kind, kKinds);
    Scenario s = kind == Scenario::Kind::Binary ? Scenario::binary_defaults()
                                                : Scenario::location_defaults();
    apply_json(s, v);
    return s;
}

obs::json::Value overlay_from_tokens(const std::vector<std::string>& tokens) {
    obs::json::Value root = obs::json::Object{};
    for (const std::string& token : tokens) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw std::runtime_error("scenario: override '" + token + "' is not PATH=VALUE");
        }
        const std::string path = token.substr(0, eq);
        // Like parse(), bound the nesting: the document is freed recursively.
        if (static_cast<std::size_t>(std::count(path.begin(), path.end(), '.')) >=
            obs::json::kMaxDepth) {
            throw std::runtime_error("scenario: override path nests deeper than " +
                                     std::to_string(obs::json::kMaxDepth) + " levels");
        }
        const std::string conflict = "scenario: override " + path + " conflicts with another one";
        obs::json::Value* node = &root;
        for (std::size_t start = 0, dot = 0; dot != std::string::npos; start = dot + 1) {
            dot = path.find('.', start);
            if (node->is_null()) *node = obs::json::Object{};
            if (!node->is_object()) throw std::runtime_error(conflict);
            node = &node->as_object()[path.substr(start, dot - start)];
        }
        if (node->is_object()) throw std::runtime_error(conflict);
        const std::string text = token.substr(eq + 1);
        if (text == "true" || text == "false") {
            *node = text == "true";
        } else if (auto number = obs::json::parse_number(text)) {
            *node = std::move(*number);
        } else {
            *node = text;
        }
    }
    return root;
}

std::string to_json(const Scenario& scenario) {
    std::ostringstream os;
    obs::json::Writer w(os, /*indent=*/2);
    write_json(scenario, w);
    return os.str();
}

Scenario scenario_from_json_text(const std::string& text) {
    return scenario_from_json(obs::json::parse(text));
}

}  // namespace tibfit::exp
