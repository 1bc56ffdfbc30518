// Shared bench entry/exit plumbing. Every bench routes its tables through
// a BenchIo so that, besides the usual stdout rendering (pretty or --csv),
// the run can export a machine-readable artifact:
//
//   bench_fig2 --json out.json
//
// writes a schema-versioned JSON document with the emitted tables, the
// echoed parameters, build metadata, and the full metrics registry of one
// representative instrumented run (the bench supplies it via finish()).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/config.h"
#include "util/table.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::exp {

struct Scenario;

class BenchIo {
  public:
    /// Parses `--json <path>` / `--json=<path>` and `--jobs N` /
    /// `--jobs=N` out of argv (the latter sets the process-wide
    /// par::set_jobs; it is excluded from the artifact's argv echo because
    /// outputs are thread-count-invariant) and echoes any key=value tokens
    /// into params().
    BenchIo(std::string name, int argc, char** argv);

    /// The replication count for this bench's sweeps: the `runs=<n>`
    /// command-line override when given (echoed into the artifact like any
    /// parameter), else `dflt` — the bench's paper-faithful default.
    /// `runs=0` also means the default; a negative count prints a message
    /// and exits with status 2.
    std::size_t trial_runs(std::size_t dflt) const;

    /// Applies every key=value token that is neither a declared option nor
    /// `runs` to `base` as a Scenario path (`engine.trust.lambda=0.2`); call
    /// after declaring options. An unknown path, a bad value or a failed
    /// validate() prints the message and exits with status 2; --help prints
    /// the usage and exits 0.
    void apply(Scenario& base);

    /// One-line bench description printed at the top of --help.
    void describe(std::string text) { description_ = std::move(text); }

    /// Declares a `key=value` knob that is not a Scenario field and returns
    /// the command-line override when given, else `dflt`. Declaring lists
    /// the key in --help and keeps it out of apply(); defaults are never
    /// written into params(), so the artifact's parameter echo carries
    /// exactly what the user typed plus what the bench sets explicitly.
    double option(const std::string& key, double dflt, const std::string& help);
    bool option(const std::string& key, bool dflt, const std::string& help);
    std::string option(const std::string& key, std::string dflt, const std::string& help);
    std::string option(const std::string& key, const char* dflt, const std::string& help) {
        return option(key, std::string(dflt), help);
    }

    /// Prints `t` to stdout (CSV with --csv, pretty otherwise) and keeps a
    /// copy for the artifact.
    void emit(const util::Table& t);

    /// True when the run should produce a JSON artifact.
    bool json_requested() const { return !json_path_.empty(); }

    /// Stamps wall time (steady clock, since process start) and peak RSS
    /// into the artifact's optional `timing` block. Off by default because
    /// timing differs run to run and the determinism CI byte-compares
    /// artifacts across --jobs values; the user can opt in with --timing,
    /// and perf benches (bench_hotpath) opt in unconditionally because
    /// their numbers are timings already.
    void enable_timing() { timing_ = true; }

    /// Parameters echoed into the artifact. Benches add the knobs of their
    /// representative run here.
    util::Config& params() { return params_; }

    /// Call as the last statement of main: `return io.finish(...)`. With
    /// --json, runs `instrument` — which should execute ONE representative
    /// experiment with the passed Recorder attached — and writes the
    /// artifact; without a callback, a small default binary run supplies
    /// the metrics. Returns the process exit code.
    int finish(const std::function<void(obs::Recorder&)>& instrument = {});

  private:
    struct DeclaredOption {
        std::string key;
        std::string dflt;  ///< rendered default, for --help only
        std::string help;
    };

    /// Uniform usage text: description, the declared key=value options,
    /// then the standard flags every bench shares (runs=N, PATH=VALUE,
    /// --csv, --json, --jobs, --timing, --help).
    void print_help(std::ostream& out) const;
    void declare(const std::string& key, std::string dflt, const std::string& help);
    bool declared(const std::string& key) const;

    std::string name_;
    std::string description_;
    std::vector<std::string> argv_;
    bool csv_ = false;
    bool timing_ = false;
    bool help_ = false;
    std::string json_path_;
    util::Config params_;
    std::vector<std::string> assignments_;  ///< the key=value tokens, as typed
    std::vector<DeclaredOption> options_;
    std::vector<util::Table> tables_;
};

/// Fallback instrumented run (analysis-only benches with no simulation of
/// their own): a small binary experiment, so the artifact still carries a
/// live metrics registry.
void instrument_default_run(obs::Recorder& rec);

}  // namespace tibfit::exp
