// Shared bench entry/exit plumbing. Every bench routes its tables through
// a BenchIo so that, besides the usual stdout rendering (pretty or --csv),
// the run can export a machine-readable artifact:
//
//   bench_fig2 --json out.json
//
// writes a schema-versioned JSON document with the emitted tables, build
// metadata, and the scenario and full metrics registry of one
// representative instrumented run (the bench names it in finish()).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/config.h"
#include "util/table.h"

namespace tibfit::exp {

struct Scenario;

/// Sets par::set_jobs from the value of a `--jobs` flag; a value that is
/// not a positive integer prints "<program>: --jobs needs a positive
/// integer, got '<value>'" and exits with status 2.
void apply_jobs(const std::string& value, const std::string& program);

class BenchIo {
  public:
    /// Parses argv: `--csv`, `--timing`, `--help`/`-h`, `--json <path>` /
    /// `--json=<path>`, `--jobs N` / `--jobs=N` and key=value tokens (read
    /// by apply(), option() and trial_runs()). `--jobs` sets the
    /// process-wide par::set_jobs and is excluded from the artifact's argv
    /// echo, because outputs are thread-count-invariant. Anything else (an
    /// unknown flag, a bare word, a flag without its value, a --json path
    /// that reads as a flag or a key=value token, a --jobs count that is
    /// not a positive integer) prints a message and exits with status 2.
    BenchIo(std::string name, int argc, char** argv);

    /// The replication count for this bench's sweeps: the `runs=<n>`
    /// command-line override when given, else `dflt` — the bench's
    /// paper-faithful default. `runs=0` also means the default; a negative
    /// count prints a message and exits with status 2. Declares `runs=` the
    /// way option() declares its key, so call it before apply(); a first
    /// call after apply() throws std::logic_error.
    std::size_t trial_runs(std::size_t dflt);

    /// Applies every key=value token that is neither a declared option nor
    /// `runs` to `base` as a Scenario path (`engine.trust.lambda=0.2`); call
    /// after declaring options and trial_runs(). An unknown path, a bad
    /// value, a failed validate() or a `runs=` token in a bench that never
    /// called trial_runs() prints the message and exits with status 2;
    /// --help prints the usage and exits 0.
    void apply(Scenario& base);

    /// apply() for a bench with no Scenario: --help prints the usage and
    /// exits 0, and a key=value token that is not a declared option prints
    /// a message and exits with status 2. Call after declaring options,
    /// before any work.
    void apply();

    /// One-line bench description printed at the top of --help.
    void describe(std::string text) { description_ = std::move(text); }

    /// Declares a `key=value` knob that is not a Scenario field and returns
    /// the command-line override when given, else `dflt`. Declaring lists
    /// the key in --help and keeps it out of apply(). A value of the wrong
    /// type prints a message and exits with status 2.
    double option(const std::string& key, double dflt, const std::string& help);
    bool option(const std::string& key, bool dflt, const std::string& help);
    std::string option(const std::string& key, std::string dflt, const std::string& help);
    std::string option(const std::string& key, const char* dflt, const std::string& help) {
        return option(key, std::string(dflt), help);
    }

    /// Prints `t` to stdout (CSV with --csv, pretty otherwise) and keeps a
    /// copy for the artifact.
    void emit(const util::Table& t);

    /// Stamps wall time (steady clock, since process start) and peak RSS
    /// into the artifact's optional `timing` block. Off by default because
    /// timing differs run to run and the determinism CI byte-compares
    /// artifacts across --jobs values; the user can opt in with --timing,
    /// and perf benches (bench_hotpath) opt in unconditionally because
    /// their numbers are timings already.
    void enable_timing() { timing_ = true; }

    /// Call as the last statement of main: `return io.finish(s)`. With
    /// --json, runs `representative` — one corner of the bench's sweep —
    /// with a recorder attached, through the runner its kind names, and
    /// writes the artifact: that scenario as its `scenario` member, the
    /// run's metrics registry and the emitted tables. Returns the process
    /// exit code.
    int finish(const Scenario& representative);

    /// finish() for a bench that runs no Scenario of its own (closed-form
    /// analysis, hand-built deployments, microbenchmarks): a small binary
    /// run (binary defaults, 50 events, seed 1) supplies the metrics.
    int finish();

  private:
    struct DeclaredOption {
        std::string key;
        std::string dflt;  ///< rendered default, for --help only
        std::string help;
    };

    /// Uniform usage text: description, the declared key=value options,
    /// then the standard flags every bench shares (runs=N only when the
    /// bench reads trial_runs(), PATH=VALUE only when it takes a scenario,
    /// --csv, --json, --jobs, --timing, --help).
    void print_help(std::ostream& out, bool takes_scenario) const;
    /// Marks the options as read and, with --help, prints the usage and
    /// exits 0.
    void exit_on_help(bool takes_scenario);
    void declare(const std::string& key, std::string dflt, const std::string& help);
    bool declared(const std::string& key) const;

    std::string name_;
    std::string description_;
    std::vector<std::string> argv_;
    bool csv_ = false;
    bool timing_ = false;
    bool help_ = false;
    bool reads_runs_ = false;  ///< trial_runs() was called
    bool applied_ = false;     ///< apply() was called
    std::string json_path_;
    util::Config assigned_;  ///< the key=value tokens, typed
    std::vector<std::string> assignments_;  ///< the key=value tokens, as typed
    std::vector<DeclaredOption> options_;
    std::vector<util::Table> tables_;
};

}  // namespace tibfit::exp
