#include "obs/artifact.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>

#if !defined(__linux__) && (defined(__unix__) || defined(__APPLE__))
#include <sys/resource.h>
#endif

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/version.h"
#include "util/table.h"

namespace tibfit::obs {

std::string build_revision() { return TIBFIT_BUILD_REVISION; }

namespace {
const std::chrono::steady_clock::time_point kProcessEpoch = std::chrono::steady_clock::now();
}  // namespace

double process_wall_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessEpoch)
        .count();
}

double process_peak_rss_bytes() {
#if defined(__linux__)
    // Not getrusage: Linux carries ru_maxrss across exec, so a launcher's
    // larger peak would read as this image's. VmHWM is this image's alone.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(std::strlen("VmHWM:"))) * 1024.0;  // "<n> kB"
        }
    }
    return 0.0;
#elif defined(__unix__) || defined(__APPLE__)
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB on the BSDs
#endif
#else
    return 0.0;
#endif
}

void write_run_artifact(std::ostream& os, const ArtifactMeta& meta, const Registry& metrics,
                        const std::function<void(json::Writer&)>& write_scenario,
                        const std::vector<util::Table>& tables) {
    json::Writer w(os, 2);
    w.begin_object();
    w.field("schema", kArtifactSchemaVersion);
    w.field("tool", meta.tool);
    w.field("name", meta.name);
    w.field("build", build_revision());
    w.key("argv").begin_array();
    for (const auto& a : meta.argv) w.value(a);
    w.end_array();
    if (meta.has_timing) {
        // Optional, additive block (no schema bump): run wall time and peak
        // RSS, so BENCH_HOTPATH.json-style baselines are machine-comparable
        // across PRs. Producers that must stay byte-identical across runs
        // (the --jobs determinism contract) simply never opt in.
        w.key("timing").begin_object();
        w.field("wall_seconds", meta.timing.wall_seconds);
        w.field("peak_rss_bytes", meta.timing.peak_rss_bytes);
        w.end_object();
    }
    w.key("scenario");
    write_scenario(w);
    w.key("metrics");
    metrics.write_json(w);
    w.key("tables").begin_array();
    for (const util::Table& t : tables) {
        w.begin_object();
        w.field("title", t.title());
        w.key("header").begin_array();
        for (const auto& cell : t.header_cells()) w.value(cell);
        w.end_array();
        w.key("rows").begin_array();
        for (const auto& row : t.all_rows()) {
            w.begin_array();
            for (const auto& cell : row) w.value(cell);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
}

}  // namespace tibfit::obs
