#include "obs/metrics.h"

#include <iomanip>
#include <ostream>

#include "obs/names.h"

namespace tibfit::obs {

HistogramMetric& Registry::histogram(const std::string& name, double lo, double hi,
                                     std::size_t bins) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.try_emplace(name, lo, hi, bins).first;
    }
    return it->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
}

const HistogramMetric* Registry::find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
    for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
    for (const auto& [name, g] : other.gauges_) gauge(name).merge(g);
    for (const auto& [name, h] : other.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, h);
        } else {
            it->second.merge(h);
        }
    }
}

void Registry::write_summary(std::ostream& os) const {
    os << "== metrics ==\n";
    const auto label = [&os](const std::string& name) -> std::ostream& {
        return os << std::left << std::setw(36) << name << ' ';
    };
    for (const auto& [name, c] : counters_) label(name) << c.value() << '\n';
    for (const auto& [name, g] : gauges_) label(name) << json::number_to_string(g.value()) << '\n';
    for (const auto& [name, h] : histograms_) {
        label(name) << "n=" << h.count();
        if (h.count()) {
            os << " mean=" << json::number_to_string(h.stats().mean())
               << " min=" << json::number_to_string(h.stats().min())
               << " max=" << json::number_to_string(h.stats().max())
               << " p50=" << json::number_to_string(h.bins().quantile(0.5))
               << " p99=" << json::number_to_string(h.bins().quantile(0.99));
            if (h.bins().underflow() || h.bins().overflow()) {
                os << " under=" << h.bins().underflow() << " over=" << h.bins().overflow();
            }
        }
        os << '\n';
    }
}

void Registry::write_json(json::Writer& w) const {
    w.begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, c] : counters_) w.field(name, c.value());
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, g] : gauges_) w.field(name, g.value());
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [name, h] : histograms_) {
        w.key(name).begin_object();
        w.field("count", static_cast<std::uint64_t>(h.count()));
        w.field("mean", h.stats().mean());
        w.field("stddev", h.stats().stddev());
        w.field("min", h.count() ? h.stats().min() : 0.0);
        w.field("max", h.count() ? h.stats().max() : 0.0);
        w.field("p50", h.bins().total() ? h.bins().quantile(0.5) : 0.0);
        w.field("p90", h.bins().total() ? h.bins().quantile(0.9) : 0.0);
        w.field("p99", h.bins().total() ? h.bins().quantile(0.99) : 0.0);
        w.field("underflow", static_cast<std::uint64_t>(h.bins().underflow()));
        w.field("overflow", static_cast<std::uint64_t>(h.bins().overflow()));
        w.field("bin_lo", h.bins().bin_lo(0));
        w.field("bin_hi", h.bins().bin_lo(h.bins().bins()));
        w.key("bins").begin_array();
        for (std::size_t i = 0; i < h.bins().bins(); ++i) {
            w.value(static_cast<std::uint64_t>(h.bins().bin_count(i)));
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

HistogramMetric& decision_latency_histogram(Registry& r) {
    return r.histogram(metric::kClusterDecisionLatency, 0.0, 5.0, 50);
}

HistogramMetric& cti_margin_histogram(Registry& r) {
    return r.histogram(metric::kClusterCtiMargin, -25.0, 25.0, 50);
}

HistogramMetric& ti_sample_histogram(Registry& r) {
    return r.histogram(metric::kTrustTiSamples, 0.0, 1.0, 20);
}

void preregister_standard_metrics(Registry& r) {
    r.counter(metric::kSimEventsExecuted);
    r.gauge(metric::kSimQueueHighWater);
    r.counter(metric::kChannelDelivered);
    r.counter(metric::kChannelDropped);
    r.counter(metric::kChannelOutOfRange);
    r.counter(metric::kChannelCollisions);
    r.counter(metric::kTransportOriginated);
    r.counter(metric::kTransportForwarded);
    r.counter(metric::kTransportRetransmissions);
    r.counter(metric::kTransportGaveUp);
    r.counter(metric::kTransportDuplicates);
    r.counter(metric::kClusterReportsReceived);
    r.counter(metric::kClusterWindowsOpened);
    r.counter(metric::kClusterDecisions);
    r.counter(metric::kClusterEventsDeclared);
    decision_latency_histogram(r);
    cti_margin_histogram(r);
    r.counter(metric::kTrustPenalties);
    r.counter(metric::kTrustRewards);
    ti_sample_histogram(r);
    r.counter(metric::kSweepTruncatedRuns);
    r.gauge(metric::kExpAccuracy);
    r.gauge(metric::kExpEvents);
    r.gauge(metric::kExpDetected);
    r.gauge(metric::kExpFalsePositives);
    r.gauge(metric::kExpIsolated);
    r.gauge(metric::kExpMeanTi);
    r.gauge(metric::kExpMeanTiCorrect);
    r.gauge(metric::kExpMeanTiFaulty);
}

}  // namespace tibfit::obs
