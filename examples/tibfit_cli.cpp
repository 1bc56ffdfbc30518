// tibfit_cli — run any TIBFIT experiment from the command line.
//
// Every exp::Scenario field is a PATH=VALUE knob, and the short keys are
// aliases for paths, so new parameter studies need no recompilation:
//
//   ./tibfit_cli mode=binary pct_faulty=0.7 events=200 runs=10
//   ./tibfit_cli mode=location level=2 pct_faulty=0.5 policy=baseline
//   ./tibfit_cli mode=decay decay_final=0.75 mobility.pause=2
//
// Prints one result row (or the per-epoch series for mode=decay). Fields
// not given keep the paper's Table-1/Table-2 defaults plus the mode's
// overlay. `list=true` prints the effective scenario and the aliases. A
// bad key or value exits 2.
//
// Observability: `--metrics <path>` writes the run's metrics registry as a
// human-readable summary; `--trace <path>` writes the structured decision
// trace as JSONL (see docs/OBSERVABILITY.md). The legacy `trace=<path>`
// CSV dump of mode=location is unchanged.
//
// Parallelism: with runs>1 the replications fan out across threads —
// `--jobs <n>` or env TIBFIT_JOBS picks the width (default: hardware
// concurrency) and the printed mean is bit-identical at any value (see
// docs/PARALLELISM.md). A --jobs value that is not a positive integer
// exits 2.
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/config.h"
#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "exp/trace.h"
#include "obs/recorder.h"
#include "util/config.h"
#include "util/invariant.h"

namespace {

using namespace tibfit;

/// A documented short key: it sets every path of its row. `spellings`
/// rewrite a value first; any other value reaches the reader as typed.
struct Alias {
    const char* key;
    std::vector<const char*> paths;
    std::vector<std::pair<const char*, const char*>> spellings = {};
};

const Alias kAliases[] = {
    {"events", {"binary.events", "location.events"}},
    {"n_nodes", {"binary.n_nodes", "location.n_nodes"}},
    {"pct_faulty", {"binary.pct_faulty", "location.pct_faulty"}},
    {"policy", {"engine.policy"}, {{"tibfit", "trust_index"}, {"baseline", "majority_vote"}}},
    {"level", {"location.fault_level"}, {{"0", "level0"}, {"1", "level1"}, {"2", "level2"}}},
    {"check", {"check.mode"}},
    {"t_out", {"engine.t_out"}},
    {"r_error", {"engine.r_error"}},
    {"sensing_radius", {"engine.sensing_radius", "deployment.sensing_radius"}},
    {"lambda", {"engine.trust.lambda"}},
    {"fault_rate", {"engine.trust.fault_rate"}},
    {"removal_ti", {"engine.trust.removal_ti"}},
    {"collusion_defense", {"engine.collusion_defense"}},
    {"weighted_location", {"engine.trust_weighted_location"}},
    {"channel_drop", {"channel.drop_probability"}},
    {"channel_airtime", {"channel.airtime"}},
    {"correct_ner", {"faults.natural_error_rate"}},
    {"missed_alarm_rate", {"faults.missed_alarm_rate"}},
    {"false_alarm_rate", {"faults.false_alarm_rate"}},
    {"correct_sigma", {"faults.correct_sigma"}},
    {"faulty_sigma", {"faults.faulty_sigma"}},
    {"faulty_drop_rate", {"faults.faulty_drop_rate"}},
    {"collusion_jitter", {"faults.collusion_jitter"}},
    {"speed_min", {"mobility.speed_min"}},
    {"speed_max", {"mobility.speed_max"}},
    {"grid", {"location.grid_layout"}},
    {"multihop", {"location.multihop"}},
    {"radio_range", {"location.radio_range"}},
    {"mobile", {"location.mobile"}},
    {"n_ch", {"location.n_ch"}},
    {"rotation_period", {"location.rotation_period"}},
    {"burst", {"location.burst"}},
    {"tx_jitter", {"location.tx_jitter"}},
    {"epoch_events", {"location.epoch_events", "location.decay_epoch_events"}},
    {"decay_initial", {"location.decay_initial"}},
    {"decay_step", {"location.decay_step"}},
    {"decay_final", {"location.decay_final"}},
};

/// Appends the PATH=VALUE tokens `token` stands for: an alias's paths, or
/// `token` itself.
void expand(const std::string& token, std::vector<std::string>& out) {
    const std::size_t eq = token.find('=');
    for (const Alias& a : kAliases) {
        if (eq == std::string::npos || token.compare(0, eq, a.key) != 0) continue;
        std::string value = token.substr(eq + 1);
        for (const auto& [from, to] : a.spellings) {
            if (value == from) value = to;
        }
        for (const char* path : a.paths) out.push_back(std::string(path) + "=" + value);
        return;
    }
    out.push_back(token);
}

/// Where each mode departs from Scenario::binary_defaults() (Table 1) or
/// location_defaults() (Table 2).
std::vector<std::string> mode_defaults(const std::string& mode) {
    if (mode == "binary") return {"binary.pct_faulty=0.5", "channel.drop_probability=0"};
    if (mode == "location") return {"location.pct_faulty=0.3"};
    return {"location.pct_faulty=0.3", "location.decay=true"};
}

void print_list(const exp::Scenario& s) {
    std::printf("%s\nusage: tibfit_cli [mode=binary|location|decay] [runs=N] [trace=FILE.csv] "
                "[list=true] [--metrics FILE] [--trace FILE.jsonl] [--jobs N] [PATH=VALUE ...]\n"
                "PATH is a field above or one of these aliases:\n",
                exp::to_json(s).c_str());
    for (const Alias& a : kAliases) {
        std::printf("  %-18s", a.key);
        for (const char* path : a.paths) std::printf(" %s", path);
        for (const auto& [from, to] : a.spellings) std::printf("  %s=%s", from, to);
        std::printf("\n");
    }
}

/// Reports the self-check tallies after an instrumented run; the exit
/// code turns nonzero on any oracle divergence so scripts can gate on it.
int report_check(check::Mode mode, std::size_t checked, std::size_t divergences) {
    if (mode == check::Mode::Off) return 0;
    std::printf("check: mode=%s checked=%zu divergences=%zu invariant_violations=%llu\n",
                check::mode_name(mode), checked, divergences,
                static_cast<unsigned long long>(util::invariant_violations()));
    return divergences ? 1 : 0;
}

int run_binary(const exp::Scenario& s) {
    const auto r = exp::run_binary_experiment(s);
    std::printf("accuracy=%.4f detection=%.4f events=%zu detected=%zu "
                "phantom_windows=%zu phantoms_declared=%zu ti_correct=%.3f ti_faulty=%.3f\n",
                r.accuracy, r.detection_rate, r.events, r.detected, r.false_alarm_windows,
                r.phantoms_declared, r.mean_ti_correct, r.mean_ti_faulty);
    return report_check(s.check.mode, r.checked_decisions, r.oracle_divergences);
}

int run_location(const exp::Scenario& s, const std::string& trace_path) {
    const auto r = run_location_experiment(s);
    std::printf("accuracy=%.4f events=%zu detected=%zu false_positives=%zu isolated=%zu "
                "ti_correct=%.3f ti_faulty=%.3f\n",
                r.accuracy, r.events, r.detected, r.false_positives, r.isolated,
                r.mean_ti_correct, r.mean_ti_faulty);
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open trace file '%s'\n", trace_path.c_str());
            return 1;
        }
        exp::write_trace_csv(out, r.trace_events, r.trace_decisions);
        std::printf("trace written to %s (%zu events, %zu decisions)\n", trace_path.c_str(),
                    r.trace_events.size(), r.trace_decisions.size());
    }
    return report_check(s.check.mode, r.checked_decisions, r.oracle_divergences);
}

int run_decay(const exp::Scenario& s) {
    const auto r = run_location_experiment(s);
    const exp::LocationWorkload& wl = s.location;
    std::printf("epoch  %%compromised  accuracy\n");
    for (std::size_t e = 0; e < r.epoch_accuracy.size(); ++e) {
        std::printf("%4zu   %6.1f%%      %.4f\n", e + 1,
                    100.0 * (wl.decay_initial + wl.decay_step * static_cast<double>(e)),
                    r.epoch_accuracy[e]);
    }
    std::printf("overall accuracy=%.4f isolated=%zu\n", r.accuracy, r.isolated);
    return report_check(s.check.mode, r.checked_decisions, r.oracle_divergences);
}

}  // namespace

int main(int argc, char** argv) {
    // Tokens that are not flags are the CLI's own knobs or overrides.
    std::string metrics_path, trace_path;
    util::Config args;
    std::vector<std::string> overrides;
    for (int i = 1; i < argc; ++i) {
        const std::string a(argv[i]);
        if (a == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (a.rfind("--metrics=", 0) == 0) {
            metrics_path = a.substr(std::string_view("--metrics=").size());
        } else if (a == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (a.rfind("--trace=", 0) == 0) {
            trace_path = a.substr(std::string_view("--trace=").size());
        } else if (a == "--jobs" && i + 1 < argc) {
            exp::apply_jobs(argv[++i], "tibfit_cli");
        } else if (a.rfind("--jobs=", 0) == 0) {
            exp::apply_jobs(a.substr(std::string_view("--jobs=").size()), "tibfit_cli");
        } else if (a == "--metrics" || a == "--trace" || a == "--jobs") {
            std::fprintf(stderr, "%s requires an argument\n", argv[i]);
            return 2;
        } else if (const std::string key = a.substr(0, a.find('='));
                   key == "mode" || key == "runs" || key == "trace" || key == "list") {
            args.parse_assignment(a);
        } else {
            expand(a, overrides);
        }
    }

    exp::Scenario s;
    std::string mode, csv_trace_path;
    std::size_t runs = 1;
    try {
        mode = args.get_string("mode", "location");
        if (mode != "binary" && mode != "location" && mode != "decay") {
            std::fprintf(stderr, "unknown mode '%s' (binary|location|decay)\n", mode.c_str());
            return 2;
        }
        s = mode == "binary" ? exp::Scenario::binary_defaults()
                             : exp::Scenario::location_defaults();
        std::vector<std::string> tokens = mode_defaults(mode);
        tokens.insert(tokens.end(), overrides.begin(), overrides.end());
        exp::apply_json(s, exp::overlay_from_tokens(tokens));
        runs = args.get_count("runs", 1);
        csv_trace_path = args.get_string("trace", "");
        if (args.get_bool("list", false)) {
            print_list(s);
            return 0;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    // Knobs arrive as parsed text, so "nan" or "inf" can reach any field.
    const std::vector<std::string> errors = s.validate();
    for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    if (!errors.empty()) return 2;

    obs::Recorder recorder;
    if (!metrics_path.empty() || !trace_path.empty()) {
        s.recorder = &recorder;
        recorder.trace().set_enabled(!trace_path.empty());
    }
    s.location.keep_trace = mode == "location" && !csv_trace_path.empty();

    int rc;
    try {
        if (runs > 1 && mode != "decay") {
            std::printf("accuracy (mean of %zu runs): %.4f\n", runs, exp::mean_accuracy(s, runs));
            rc = 0;
        } else if (mode == "binary") {
            rc = run_binary(s);
        } else if (mode == "decay") {
            rc = run_decay(s);
        } else {
            rc = run_location(s, csv_trace_path);
        }
    } catch (const std::logic_error& e) {
        // check=assert aborts the run on the first divergence or
        // invariant violation.
        std::fprintf(stderr, "check failed: %s\n", e.what());
        return 1;
    }
    if (rc != 0) return rc;

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out) {
            std::fprintf(stderr, "cannot open metrics file '%s'\n", metrics_path.c_str());
            return 1;
        }
        recorder.metrics().write_summary(out);
        std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open trace file '%s'\n", trace_path.c_str());
            return 1;
        }
        recorder.trace().write_jsonl(out);
        std::printf("trace written to %s (%zu records)\n", trace_path.c_str(),
                    recorder.trace().size());
    }
    return 0;
}
