#include "inject/campaign.h"

#include <stdexcept>

#include "obs/json.h"
#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::inject {

namespace {

std::string msg(const char* what, std::size_t index, const char* detail) {
    return std::string("campaign: ") + what + "[" + std::to_string(index) + "] " + detail;
}

void check_probability(std::vector<std::string>& errors, const char* what, std::size_t index,
                       const char* field, double p) {
    if (p < 0.0 || p > 1.0) {
        errors.push_back(msg(what, index, (std::string(field) + " outside [0, 1]").c_str()));
    }
}

}  // namespace

bool CampaignSpec::degraded_at(double t) const {
    for (const auto& w : degradations) {
        if (t >= w.start && t < w.end) return true;
    }
    return false;
}

std::vector<std::string> CampaignSpec::validate() const {
    std::vector<std::string> errors;
    for (std::size_t i = 0; i < degradations.size(); ++i) {
        const auto& w = degradations[i];
        if (w.end <= w.start) errors.push_back(msg("degradations", i, "window end <= start"));
        check_probability(errors, "degradations", i, "extra_drop", w.extra_drop);
        check_probability(errors, "degradations", i, "duplicate_probability",
                          w.duplicate_probability);
        check_probability(errors, "degradations", i, "reorder_probability",
                          w.reorder_probability);
        if (w.delay_jitter < 0.0) errors.push_back(msg("degradations", i, "negative delay_jitter"));
        if (w.reorder_hold < 0.0) errors.push_back(msg("degradations", i, "negative reorder_hold"));
        if (w.reorder_probability > 0.0 && w.reorder_hold <= 0.0) {
            errors.push_back(msg("degradations", i, "reorder_probability without reorder_hold"));
        }
    }
    for (std::size_t i = 0; i < failovers.size(); ++i) {
        const auto& f = failovers[i];
        if (f.kill_at < 0.0) errors.push_back(msg("failovers", i, "negative kill_at"));
        if (f.recover_at >= 0.0 && f.recover_at <= f.kill_at) {
            errors.push_back(msg("failovers", i, "recover_at <= kill_at"));
        }
    }
    for (std::size_t i = 0; i < compromises.size(); ++i) {
        const auto& c = compromises[i];
        if (c.at < 0.0) errors.push_back(msg("compromises", i, "negative onset time"));
        check_probability(errors, "compromises", i, "target_pct", c.target_pct);
    }
    for (std::size_t i = 0; i < fault_shifts.size(); ++i) {
        const auto& s = fault_shifts[i];
        if (s.at < 0.0) errors.push_back(msg("fault_shifts", i, "negative shift time"));
        if (s.missed_alarm_rate > 1.0) {
            errors.push_back(msg("fault_shifts", i, "missed_alarm_rate > 1"));
        }
        if (s.false_alarm_rate > 1.0) {
            errors.push_back(msg("fault_shifts", i, "false_alarm_rate > 1"));
        }
        if (s.missed_alarm_rate < 0.0 && s.false_alarm_rate < 0.0) {
            errors.push_back(msg("fault_shifts", i, "shifts nothing (both rates negative)"));
        }
    }
    return errors;
}

void write_json(const CampaignSpec& spec, obs::json::Writer& w) {
    w.begin_object();
    w.key("degradations");
    w.begin_array();
    for (const auto& d : spec.degradations) {
        w.begin_object();
        w.field("start", d.start);
        w.field("end", d.end);
        w.field("extra_drop", d.extra_drop);
        w.field("duplicate_probability", d.duplicate_probability);
        w.field("delay_jitter", d.delay_jitter);
        w.field("reorder_probability", d.reorder_probability);
        w.field("reorder_hold", d.reorder_hold);
        w.end_object();
    }
    w.end_array();
    w.key("failovers");
    w.begin_array();
    for (const auto& f : spec.failovers) {
        w.begin_object();
        w.field("kill_at", f.kill_at);
        w.field("recover_at", f.recover_at);
        w.field("warm_handoff", f.warm_handoff);
        w.end_object();
    }
    w.end_array();
    w.key("compromises");
    w.begin_array();
    for (const auto& c : spec.compromises) {
        w.begin_object();
        w.field("at", c.at);
        w.field("target_pct", c.target_pct);
        w.end_object();
    }
    w.end_array();
    w.key("fault_shifts");
    w.begin_array();
    for (const auto& s : spec.fault_shifts) {
        w.begin_object();
        w.field("at", s.at);
        w.field("missed_alarm_rate", s.missed_alarm_rate);
        w.field("false_alarm_rate", s.false_alarm_rate);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

CampaignSpec campaign_from_json(const obs::json::Value& v) {
    const obs::json::Fields root(v, "campaign");
    CampaignSpec spec;
    for (const auto& d : root.objects("degradations")) {
        net::ChannelFaultWindow w;
        d.read("start", w.start);
        d.read("end", w.end);
        d.read("extra_drop", w.extra_drop);
        d.read("duplicate_probability", w.duplicate_probability);
        d.read("delay_jitter", w.delay_jitter);
        d.read("reorder_probability", w.reorder_probability);
        d.read("reorder_hold", w.reorder_hold);
        d.reject_unread();
        spec.degradations.push_back(w);
    }
    for (const auto& f : root.objects("failovers")) {
        ChFailover fo;
        f.read("kill_at", fo.kill_at);
        f.read("recover_at", fo.recover_at);
        f.read("warm_handoff", fo.warm_handoff);
        f.reject_unread();
        spec.failovers.push_back(fo);
    }
    for (const auto& c : root.objects("compromises")) {
        CompromiseOnset onset;
        c.read("at", onset.at);
        c.read("target_pct", onset.target_pct);
        c.reject_unread();
        spec.compromises.push_back(onset);
    }
    for (const auto& s : root.objects("fault_shifts")) {
        FaultRateShift shift;
        s.read("at", shift.at);
        s.read("missed_alarm_rate", shift.missed_alarm_rate);
        s.read("false_alarm_rate", shift.false_alarm_rate);
        s.reject_unread();
        spec.fault_shifts.push_back(shift);
    }
    root.reject_unread();
    return spec;
}

void Campaign::arm_channel(net::Channel& channel) const {
    if (spec_.degradations.empty()) return;
    channel.set_fault_schedule(spec_.degradations, rng_.stream("inject.channel"));
}

void Campaign::note_fired() const {
    // Campaigns only exist in injection runs, so registering the counter at
    // fire time cannot disturb injection-free artifact shapes.
    if (recorder_) recorder_->metrics().counter(obs::metric::kInjectFaultEvents).inc();
}

void Campaign::schedule() {
    if (compromise_fn_) {
        for (const auto& c : spec_.compromises) {
            sim_->schedule_at(c.at, [this, c] {
                note_fired();
                compromise_fn_(c);
            });
        }
    }
    if (fault_shift_fn_) {
        for (const auto& s : spec_.fault_shifts) {
            sim_->schedule_at(s.at, [this, s] {
                note_fired();
                fault_shift_fn_(s);
            });
        }
    }
    if (failover_fn_) {
        for (const auto& f : spec_.failovers) {
            sim_->schedule_at(f.kill_at, [this, f] {
                note_fired();
                failover_fn_(f, /*recovering=*/false);
            });
            if (f.recover_at >= 0.0) {
                sim_->schedule_at(f.recover_at, [this, f] {
                    note_fired();
                    failover_fn_(f, /*recovering=*/true);
                });
            }
        }
    }
}

}  // namespace tibfit::inject
