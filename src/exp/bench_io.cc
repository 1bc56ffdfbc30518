#include "exp/bench_io.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "par/jobs.h"

namespace tibfit::exp {

namespace {

[[noreturn]] void reject(const std::string& bench, const std::string& message) {
    std::cerr << bench << ": " << message << '\n';
    std::exit(2);
}

/// `read()`, or exit 2 with its message when the typed value is refused.
template <class Read>
auto checked(const std::string& bench, Read read) {
    try {
        return read();
    } catch (const std::out_of_range& e) {
        reject(bench, e.what());
    }
}

}  // namespace

void apply_jobs(const std::string& value, const std::string& program) {
    std::size_t n = 0;
    const char* end = value.data() + value.size();
    const auto [stop, ec] = std::from_chars(value.data(), end, n);
    if (ec != std::errc{} || stop != end || n == 0) {
        reject(program, "--jobs needs a positive integer, got '" + value + "'");
    }
    par::set_jobs(n);
}

BenchIo::BenchIo(std::string name, int argc, char** argv) : name_(std::move(name)) {
    // The value of flag argv[i] is the next token, which must exist.
    const auto value_of = [&](int& i) -> std::string {
        if (i + 1 >= argc) reject(name_, std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    argv_.reserve(static_cast<std::size_t>(argc));
    if (argc > 0) argv_.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        // --jobs only picks the thread count; results are bit-identical at
        // any value, so it is deliberately NOT echoed into argv_ (and thus
        // the artifact) — `--jobs 1` and `--jobs 8` runs must diff clean.
        if (arg == "--jobs") {
            apply_jobs(value_of(i), name_);
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0) {
            apply_jobs(arg.substr(std::strlen("--jobs=")), name_);
            continue;
        }
        // --help short-circuits the run before finish(), so it never
        // belongs in the artifact's argv echo either.
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            continue;
        }
        argv_.push_back(arg);
        if (arg == "--csv") {
            csv_ = true;
        } else if (arg == "--timing") {
            timing_ = true;
        } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
            json_path_ = arg == "--json" ? value_of(i) : arg.substr(std::strlen("--json="));
            // `--json runs=1` would otherwise swallow the override as a
            // file name.
            if (json_path_.empty() || json_path_[0] == '-' ||
                json_path_.find('=') != std::string::npos) {
                reject(name_, "--json needs a file path, got '" + json_path_ + "'");
            }
            if (arg == "--json") argv_.push_back(json_path_);
        } else if (assigned_.parse_assignment(arg)) {
            assignments_.push_back(arg);
        } else {
            reject(name_, "unknown argument '" + arg + "' (see --help)");
        }
    }
}

std::size_t BenchIo::trial_runs(std::size_t dflt) {
    if (applied_ && !reads_runs_) {
        throw std::logic_error(name_ + ": trial_runs() must precede apply()");
    }
    reads_runs_ = true;
    const std::size_t n = checked(name_, [&] { return assigned_.get_count("runs", dflt); });
    return n > 0 ? n : dflt;
}

void BenchIo::exit_on_help(bool takes_scenario) {
    applied_ = true;
    if (!help_) return;
    print_help(std::cout, takes_scenario);
    std::exit(0);
}

void BenchIo::apply(Scenario& base) {
    exit_on_help(true);
    std::vector<std::string> paths;
    for (const std::string& a : assignments_) {
        const std::string key = a.substr(0, a.find('='));
        if (key == "runs" && !reads_runs_) {
            reject(name_, "'" + a + "': this bench has no trial count to set (see --help)");
        }
        if (key != "runs" && !declared(key)) paths.push_back(a);
    }
    std::vector<std::string> errors;
    try {
        apply_json(base, overlay_from_tokens(paths));
        errors = base.validate();
    } catch (const std::runtime_error& e) {
        errors.push_back(e.what());
    }
    for (const std::string& e : errors) std::cerr << name_ << ": " << e << '\n';
    if (!errors.empty()) std::exit(2);
}

void BenchIo::apply() {
    exit_on_help(false);
    for (const std::string& a : assignments_) {
        if (!declared(a.substr(0, a.find('=')))) {
            reject(name_, "unknown option '" + a + "': this bench runs no scenario (see --help)");
        }
    }
}

void BenchIo::declare(const std::string& key, std::string dflt, const std::string& help) {
    for (const auto& o : options_) {
        if (o.key == key) return;  // first declaration wins
    }
    options_.push_back({key, std::move(dflt), help});
}

bool BenchIo::declared(const std::string& key) const {
    return std::any_of(options_.begin(), options_.end(),
                       [&](const DeclaredOption& o) { return o.key == key; });
}

double BenchIo::option(const std::string& key, double dflt, const std::string& help) {
    std::ostringstream rendered;
    rendered << dflt;
    declare(key, rendered.str(), help);
    return checked(name_, [&] { return assigned_.get_double(key, dflt); });
}

bool BenchIo::option(const std::string& key, bool dflt, const std::string& help) {
    declare(key, dflt ? "true" : "false", help);
    return checked(name_, [&] { return assigned_.get_bool(key, dflt); });
}

std::string BenchIo::option(const std::string& key, std::string dflt, const std::string& help) {
    declare(key, dflt, help);
    return checked(name_, [&] { return assigned_.get_string(key, dflt); });
}

void BenchIo::print_help(std::ostream& out, bool takes_scenario) const {
    out << "usage: " << name_ << " [key=value ...] [flags]\n";
    if (!description_.empty()) out << "\n  " << description_ << "\n";
    std::size_t width = std::strlen("--json PATH");
    for (const auto& o : options_) width = std::max(width, o.key.size() + 1 + o.dflt.size());
    const auto row = [&](const std::string& lhs, const std::string& help) {
        out << "  " << std::left << std::setw(static_cast<int>(width) + 2) << lhs << help
            << '\n';
    };
    if (!options_.empty()) {
        out << "\noptions:\n";
        for (const auto& o : options_) row(o.key + '=' + o.dflt, o.help);
    }
    out << "\nstandard:\n";
    if (reads_runs_) row("runs=N", "replications per data point (default is per bench)");
    if (takes_scenario) {
        row("PATH=VALUE", "overrides any Scenario field (engine.trust.lambda=0.2)");
    }
    row("--csv", "machine-readable tables on stdout");
    row("--json PATH", "write the schema-versioned run artifact");
    row("--jobs N", "worker threads for trial fan-out (outputs identical at any N)");
    row("--timing", "include wall time and peak RSS in the artifact");
    row("--help", "this message");
}

void BenchIo::emit(const util::Table& t) {
    if (csv_) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
    tables_.push_back(t);
}

int BenchIo::finish(const Scenario& representative) {
    if (json_path_.empty()) return 0;
    obs::Recorder rec;
    Scenario run = representative;
    run.recorder = &rec;
    if (run.kind == Scenario::Kind::Binary) {
        run_binary_experiment(run);
    } else {
        run_location_experiment(run);
    }
    std::ofstream out(json_path_);
    if (!out) {
        std::cerr << name_ << ": cannot open " << json_path_ << " for writing\n";
        return 1;
    }
    obs::ArtifactMeta meta;
    meta.name = name_;
    meta.argv = argv_;
    if (timing_) {
        meta.has_timing = true;
        meta.timing.wall_seconds = obs::process_wall_seconds();
        meta.timing.peak_rss_bytes = obs::process_peak_rss_bytes();
    }
    obs::write_run_artifact(
        out, meta, rec.metrics(), [&](obs::json::Writer& w) { write_json(representative, w); },
        tables_);
    out.flush();
    if (!out) {
        std::cerr << name_ << ": failed writing " << json_path_ << '\n';
        return 1;
    }
    return 0;
}

int BenchIo::finish() {
    Scenario s = Scenario::binary_defaults();  // 10 nodes, 40% faulty, seed 1
    s.binary.events = 50;
    return finish(s);
}

}  // namespace tibfit::exp
