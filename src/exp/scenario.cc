#include "exp/scenario.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace tibfit::exp {

namespace {

const char* kind_name(Scenario::Kind k) {
    return k == Scenario::Kind::Binary ? "binary" : "location";
}

Scenario::Kind kind_from_name(const std::string& s) {
    if (s == "binary") return Scenario::Kind::Binary;
    if (s == "location") return Scenario::Kind::Location;
    throw std::runtime_error("scenario: unknown kind '" + s + "'");
}

const char* policy_name(core::DecisionPolicy p) {
    return p == core::DecisionPolicy::TrustIndex ? "trust_index" : "majority_vote";
}

core::DecisionPolicy policy_from_name(const std::string& s) {
    if (s == "trust_index") return core::DecisionPolicy::TrustIndex;
    if (s == "majority_vote") return core::DecisionPolicy::MajorityVote;
    throw std::runtime_error("scenario: unknown policy '" + s + "'");
}

const char* fault_level_name(sensor::NodeClass c) {
    switch (c) {
        case sensor::NodeClass::Correct: return "correct";
        case sensor::NodeClass::Level0: return "level0";
        case sensor::NodeClass::Level1: return "level1";
        case sensor::NodeClass::Level2: return "level2";
    }
    return "level0";
}

sensor::NodeClass fault_level_from_name(const std::string& s) {
    if (s == "correct") return sensor::NodeClass::Correct;
    if (s == "level0") return sensor::NodeClass::Level0;
    if (s == "level1") return sensor::NodeClass::Level1;
    if (s == "level2") return sensor::NodeClass::Level2;
    throw std::runtime_error("scenario: unknown fault_level '" + s + "'");
}

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

std::size_t size_or(const obs::json::Value& v, const char* key, std::size_t dflt) {
    return static_cast<std::size_t>(v.number_or(key, static_cast<double>(dflt)));
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

cluster::DeploymentConfig Scenario::deployment_config() const {
    cluster::DeploymentConfig d = deployment;
    d.engine = engine;
    d.engine.trust = effective_trust();
    d.engine.sensing_radius = d.sensing_radius;
    d.channel_drop = channel.drop_probability;
    return d;
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

void write_json(const Scenario& s, obs::json::Writer& w) {
    w.begin_object();
    w.field("kind", kind_name(s.kind));
    w.field("seed", static_cast<std::uint64_t>(s.seed));

    w.key("engine");
    w.begin_object();
    w.field("policy", policy_name(s.engine.policy));
    w.field("sensing_radius", s.engine.sensing_radius);
    w.field("r_error", s.engine.r_error);
    w.field("t_out", s.engine.t_out);
    w.key("trust");
    w.begin_object();
    w.field("lambda", s.engine.trust.lambda);
    w.field("fault_rate", s.engine.trust.fault_rate);
    w.field("removal_ti", s.engine.trust.removal_ti);
    w.end_object();
    w.field("collusion_defense", s.engine.collusion_defense);
    w.field("trust_weighted_location", s.engine.trust_weighted_location);
    w.end_object();

    w.key("channel");
    w.begin_object();
    w.field("drop_probability", s.channel.drop_probability);
    w.field("base_latency", s.channel.base_latency);
    w.field("propagation_speed", s.channel.propagation_speed);
    w.field("airtime", s.channel.airtime);
    w.end_object();

    w.key("transport");
    w.begin_object();
    w.field("ack_timeout", s.transport.ack_timeout);
    w.field("max_retries", static_cast<std::uint64_t>(s.transport.max_retries));
    w.field("ttl", static_cast<std::uint64_t>(s.transport.ttl));
    w.end_object();

    w.key("check");
    w.begin_object();
    w.field("mode", check::mode_name(s.check.mode));
    w.end_object();

    // LEACH/energy knobs of DeploymentConfig are not yet serialized; the
    // experiment runners consume only the geometry.
    w.key("deployment");
    w.begin_object();
    w.field("field", s.deployment.field);
    w.field("sensing_radius", s.deployment.sensing_radius);
    w.end_object();

    w.key("faults");
    w.begin_object();
    w.field("natural_error_rate", s.faults.natural_error_rate);
    w.field("correct_sigma", s.faults.correct_sigma);
    w.field("missed_alarm_rate", s.faults.missed_alarm_rate);
    w.field("false_alarm_rate", s.faults.false_alarm_rate);
    w.field("faulty_sigma", s.faults.faulty_sigma);
    w.field("faulty_drop_rate", s.faults.faulty_drop_rate);
    w.field("lower_ti", s.faults.lower_ti);
    w.field("upper_ti", s.faults.upper_ti);
    w.field("collusion_jitter", s.faults.collusion_jitter);
    w.end_object();

    w.key("mobility");
    w.begin_object();
    w.field("speed_min", s.mobility.speed_min);
    w.field("speed_max", s.mobility.speed_max);
    w.field("pause", s.mobility.pause);
    w.field("tick", s.mobility.tick);
    w.end_object();

    w.key("campaign");
    inject::write_json(s.campaign, w);

    w.key("binary");
    w.begin_object();
    w.field("n_nodes", static_cast<std::uint64_t>(s.binary.n_nodes));
    w.field("pct_faulty", s.binary.pct_faulty);
    w.field("false_alarm_spread_touts", s.binary.false_alarm_spread_touts);
    w.field("events", static_cast<std::uint64_t>(s.binary.events));
    w.field("event_interval", s.binary.event_interval);
    w.field("use_shadows", s.binary.use_shadows);
    w.field("corrupt_ch", s.binary.corrupt_ch);
    w.field("reliable_reports", s.binary.reliable_reports);
    w.end_object();

    w.key("location");
    w.begin_object();
    w.field("n_nodes", static_cast<std::uint64_t>(s.location.n_nodes));
    w.field("grid_layout", s.location.grid_layout);
    w.field("pct_faulty", s.location.pct_faulty);
    w.field("fault_level", fault_level_name(s.location.fault_level));
    w.field("multihop", s.location.multihop);
    w.field("radio_range", s.location.radio_range);
    w.field("mobile", s.location.mobile);
    w.field("n_ch", static_cast<std::uint64_t>(s.location.n_ch));
    w.field("rotation_period", static_cast<std::uint64_t>(s.location.rotation_period));
    w.field("events", static_cast<std::uint64_t>(s.location.events));
    w.field("event_interval", s.location.event_interval);
    w.field("burst", static_cast<std::uint64_t>(s.location.burst));
    w.field("tx_jitter", s.location.tx_jitter);
    w.field("decay", s.location.decay);
    w.field("decay_initial", s.location.decay_initial);
    w.field("decay_step", s.location.decay_step);
    w.field("decay_final", s.location.decay_final);
    w.field("decay_epoch_events", static_cast<std::uint64_t>(s.location.decay_epoch_events));
    w.field("epoch_events", static_cast<std::uint64_t>(s.location.epoch_events));
    w.field("keep_trace", s.location.keep_trace);
    w.end_object();

    w.end_object();
}

Scenario scenario_from_json(const obs::json::Value& v) {
    if (!v.is_object()) throw std::runtime_error("scenario: JSON root must be an object");
    const auto kind = kind_from_name(v.string_or("kind", "binary"));
    Scenario s = kind == Scenario::Kind::Binary ? Scenario::binary_defaults()
                                                : Scenario::location_defaults();
    s.seed = static_cast<std::uint64_t>(v.number_or("seed", static_cast<double>(s.seed)));

    if (const auto* e = v.find("engine")) {
        s.engine.policy = policy_from_name(e->string_or("policy", policy_name(s.engine.policy)));
        s.engine.sensing_radius = e->number_or("sensing_radius", s.engine.sensing_radius);
        s.engine.r_error = e->number_or("r_error", s.engine.r_error);
        s.engine.t_out = e->number_or("t_out", s.engine.t_out);
        if (const auto* t = e->find("trust")) {
            s.engine.trust.lambda = t->number_or("lambda", s.engine.trust.lambda);
            s.engine.trust.fault_rate = t->number_or("fault_rate", s.engine.trust.fault_rate);
            s.engine.trust.removal_ti = t->number_or("removal_ti", s.engine.trust.removal_ti);
        }
        s.engine.collusion_defense = e->bool_or("collusion_defense", s.engine.collusion_defense);
        s.engine.trust_weighted_location =
            e->bool_or("trust_weighted_location", s.engine.trust_weighted_location);
    }
    if (const auto* c = v.find("channel")) {
        s.channel.drop_probability = c->number_or("drop_probability", s.channel.drop_probability);
        s.channel.base_latency = c->number_or("base_latency", s.channel.base_latency);
        s.channel.propagation_speed =
            c->number_or("propagation_speed", s.channel.propagation_speed);
        s.channel.airtime = c->number_or("airtime", s.channel.airtime);
    }
    if (const auto* t = v.find("transport")) {
        s.transport.ack_timeout = t->number_or("ack_timeout", s.transport.ack_timeout);
        s.transport.max_retries =
            static_cast<std::uint32_t>(size_or(*t, "max_retries", s.transport.max_retries));
        s.transport.ttl = static_cast<std::uint8_t>(size_or(*t, "ttl", s.transport.ttl));
    }
    if (const auto* c = v.find("check")) {
        s.check.mode = check::mode_from_name(c->string_or("mode", check::mode_name(s.check.mode)));
    }
    if (const auto* d = v.find("deployment")) {
        s.deployment.field = d->number_or("field", s.deployment.field);
        s.deployment.sensing_radius =
            d->number_or("sensing_radius", s.deployment.sensing_radius);
    }
    if (const auto* f = v.find("faults")) {
        s.faults.natural_error_rate =
            f->number_or("natural_error_rate", s.faults.natural_error_rate);
        s.faults.correct_sigma = f->number_or("correct_sigma", s.faults.correct_sigma);
        s.faults.missed_alarm_rate =
            f->number_or("missed_alarm_rate", s.faults.missed_alarm_rate);
        s.faults.false_alarm_rate = f->number_or("false_alarm_rate", s.faults.false_alarm_rate);
        s.faults.faulty_sigma = f->number_or("faulty_sigma", s.faults.faulty_sigma);
        s.faults.faulty_drop_rate = f->number_or("faulty_drop_rate", s.faults.faulty_drop_rate);
        s.faults.lower_ti = f->number_or("lower_ti", s.faults.lower_ti);
        s.faults.upper_ti = f->number_or("upper_ti", s.faults.upper_ti);
        s.faults.collusion_jitter = f->number_or("collusion_jitter", s.faults.collusion_jitter);
    }
    if (const auto* m = v.find("mobility")) {
        s.mobility.speed_min = m->number_or("speed_min", s.mobility.speed_min);
        s.mobility.speed_max = m->number_or("speed_max", s.mobility.speed_max);
        s.mobility.pause = m->number_or("pause", s.mobility.pause);
        s.mobility.tick = m->number_or("tick", s.mobility.tick);
    }
    if (const auto* c = v.find("campaign")) s.campaign = inject::campaign_from_json(*c);
    if (const auto* b = v.find("binary")) {
        s.binary.n_nodes = size_or(*b, "n_nodes", s.binary.n_nodes);
        s.binary.pct_faulty = b->number_or("pct_faulty", s.binary.pct_faulty);
        s.binary.false_alarm_spread_touts =
            b->number_or("false_alarm_spread_touts", s.binary.false_alarm_spread_touts);
        s.binary.events = size_or(*b, "events", s.binary.events);
        s.binary.event_interval = b->number_or("event_interval", s.binary.event_interval);
        s.binary.use_shadows = b->bool_or("use_shadows", s.binary.use_shadows);
        s.binary.corrupt_ch = b->bool_or("corrupt_ch", s.binary.corrupt_ch);
        s.binary.reliable_reports = b->bool_or("reliable_reports", s.binary.reliable_reports);
    }
    if (const auto* l = v.find("location")) {
        s.location.n_nodes = size_or(*l, "n_nodes", s.location.n_nodes);
        s.location.grid_layout = l->bool_or("grid_layout", s.location.grid_layout);
        s.location.pct_faulty = l->number_or("pct_faulty", s.location.pct_faulty);
        s.location.fault_level = fault_level_from_name(
            l->string_or("fault_level", fault_level_name(s.location.fault_level)));
        s.location.multihop = l->bool_or("multihop", s.location.multihop);
        s.location.radio_range = l->number_or("radio_range", s.location.radio_range);
        s.location.mobile = l->bool_or("mobile", s.location.mobile);
        s.location.n_ch = size_or(*l, "n_ch", s.location.n_ch);
        s.location.rotation_period = size_or(*l, "rotation_period", s.location.rotation_period);
        s.location.events = size_or(*l, "events", s.location.events);
        s.location.event_interval = l->number_or("event_interval", s.location.event_interval);
        s.location.burst = size_or(*l, "burst", s.location.burst);
        s.location.tx_jitter = l->number_or("tx_jitter", s.location.tx_jitter);
        s.location.decay = l->bool_or("decay", s.location.decay);
        s.location.decay_initial = l->number_or("decay_initial", s.location.decay_initial);
        s.location.decay_step = l->number_or("decay_step", s.location.decay_step);
        s.location.decay_final = l->number_or("decay_final", s.location.decay_final);
        s.location.decay_epoch_events =
            size_or(*l, "decay_epoch_events", s.location.decay_epoch_events);
        s.location.epoch_events = size_or(*l, "epoch_events", s.location.epoch_events);
        s.location.keep_trace = l->bool_or("keep_trace", s.location.keep_trace);
    }
    return s;
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
