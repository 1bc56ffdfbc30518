// The simulation-wide metrics registry: named counters, gauges and
// fixed-bin histograms, built on util::Running / util::Histogram. One
// Registry spans one run. Components keep their own counts and the run
// harness adds them here once, at the end of the run; the few metrics that
// must be live (histograms, trust counters) are resolved by name once
// (references into the registry are stable).
//
// Export: write_summary (human-readable lines) and write_json (the bench
// run artifacts).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/json.h"
#include "util/stats.h"

namespace tibfit::obs {

/// Monotone event count.
class Counter {
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/// Last-write-wins scalar, with a high-water convenience.
class Gauge {
  public:
    void set(double v) {
        value_ = v;
        touched_ = true;
    }
    /// Keeps the maximum of all offered values (queue depth high-water).
    /// Also switches the gauge's merge semantics to max-combining.
    void set_max(double v) {
        if (v > value_ || !touched_) value_ = v;
        touched_ = true;
        max_mode_ = true;
    }
    double value() const { return value_; }

    /// Folds another gauge in, reproducing what sequential writes into one
    /// shared gauge would have produced: untouched sources are skipped,
    /// set_max-style sources max-combine, plain sources overwrite.
    void merge(const Gauge& other) {
        if (!other.touched_) return;
        if (other.max_mode_) {
            set_max(other.value_);
        } else {
            set(other.value_);
        }
    }

  private:
    double value_ = 0.0;
    bool touched_ = false;   // any write at all (merge skips untouched)
    bool max_mode_ = false;  // latched by set_max
};

/// Fixed-bin histogram plus Welford running stats over the same samples,
/// so exports carry both the distribution and exact mean/min/max.
class HistogramMetric {
  public:
    HistogramMetric(double lo, double hi, std::size_t bins) : hist_(lo, hi, bins) {}

    void observe(double x) {
        hist_.add(x);
        stats_.add(x);
    }

    /// Folds another metric in; layouts must match (util::Histogram::merge
    /// throws otherwise).
    void merge(const HistogramMetric& other) {
        hist_.merge(other.hist_);
        stats_.merge(other.stats_);
    }

    std::size_t count() const { return stats_.count(); }
    const util::Histogram& bins() const { return hist_; }
    const util::Running& stats() const { return stats_; }

  private:
    util::Histogram hist_;
    util::Running stats_;
};

/// The registry. Metric objects live as long as the registry and never
/// move: references returned by counter()/gauge()/histogram() stay valid.
class Registry {
  public:
    /// Finds or creates. histogram() ignores (lo, hi, bins) when the name
    /// already exists — the first creation fixes the layout.
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    HistogramMetric& histogram(const std::string& name, double lo, double hi,
                               std::size_t bins);

    /// Lookups without creation (nullptr if absent).
    const Counter* find_counter(const std::string& name) const;
    const Gauge* find_gauge(const std::string& name) const;
    const HistogramMetric* find_histogram(const std::string& name) const;

    /// Folds another registry in: counters add, gauges merge per their
    /// write mode (see Gauge::merge), histograms combine bin-wise (layouts
    /// must match). Metrics absent here are created. Merging the per-trial
    /// registries of a parallel sweep in trial-index order yields the
    /// registry a serial loop sharing one registry builds, except that
    /// histogram means and deviations agree only up to rounding — and the
    /// same bytes regardless of thread count (docs/PARALLELISM.md).
    void merge(const Registry& other);

    /// Total distinct named metrics.
    std::size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

    /// Human-readable summary: one aligned line per metric, name-sorted
    /// within each kind, counters then gauges then histograms. A histogram
    /// line appends ` under=N over=M` when out-of-range samples exist.
    void write_summary(std::ostream& os) const;

    /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
    /// {...}} written into an open writer (the caller owns the enclosing
    /// document).
    void write_json(json::Writer& w) const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace tibfit::obs
