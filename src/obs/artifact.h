// Machine-readable run artifact: one JSON document per bench run, carrying
// the scenario of its representative run, that run's metrics registry, the
// emitted tables and enough metadata (tool, build revision, argv) to tie it
// to the source tree that produced it.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace tibfit::util {
class Table;
}  // namespace tibfit::util

namespace tibfit::obs {

class Registry;
namespace json {
class Writer;
}  // namespace json

/// Bumped whenever the artifact document gains/loses/renames a field.
/// 2: the `scenario` member replaced the `params` echo.
inline constexpr int kArtifactSchemaVersion = 2;

/// Process resource usage of the run, for machine comparison of bench
/// artifacts across PRs. Only written when the producer opted in (timing
/// varies run to run, so determinism-compared artifacts must omit it).
struct ArtifactTiming {
    double wall_seconds = 0.0;   ///< steady-clock wall time of the run
    double peak_rss_bytes = 0.0; ///< peak resident set size (0 if unknown)
};

/// Identifying metadata for a run artifact.
struct ArtifactMeta {
    std::string tool = "tibfit";
    std::string name;               ///< bench/CLI name, e.g. "bench_table1"
    std::vector<std::string> argv;  ///< the invocation, verbatim
    bool has_timing = false;        ///< write the optional timing block
    ArtifactTiming timing;
};

/// Steady-clock seconds since an epoch fixed at process start — the wall
/// clock bench artifacts stamp into ArtifactTiming.
double process_wall_seconds();

/// Peak resident set size of this process image in bytes: VmHWM on Linux,
/// getrusage's ru_maxrss elsewhere, 0 where neither is available.
double process_peak_rss_bytes();

/// The build revision baked in at configure time (`git describe`), or
/// "unknown" when the source tree was not a git checkout.
std::string build_revision();

/// Writes the full artifact document (pretty-printed JSON, trailing
/// newline). `write_scenario` writes the value of the `scenario` member:
/// the representative run's configuration, which obs does not know the
/// shape of (exp::write_json does).
void write_run_artifact(std::ostream& os, const ArtifactMeta& meta, const Registry& metrics,
                        const std::function<void(json::Writer&)>& write_scenario,
                        const std::vector<util::Table>& tables);

}  // namespace tibfit::obs
