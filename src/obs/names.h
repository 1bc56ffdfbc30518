// The metric catalogue: every simulation-wide metric name in one place, so
// the instrumented layers, the pre-registration helper and the docs cannot
// drift apart. See docs/OBSERVABILITY.md for semantics.
#pragma once

#include <cstddef>

namespace tibfit::obs {

class Registry;
class HistogramMetric;

namespace metric {

// sim::Simulator
inline constexpr const char* kSimEventsExecuted = "sim.events_executed";
inline constexpr const char* kSimQueueHighWater = "sim.queue_high_water";

// net::Channel
inline constexpr const char* kChannelDelivered = "net.channel.delivered";
inline constexpr const char* kChannelDropped = "net.channel.dropped";
inline constexpr const char* kChannelOutOfRange = "net.channel.out_of_range";
inline constexpr const char* kChannelCollisions = "net.channel.collisions";

// net::ReliableTransport (aggregated over every relay shim in the run)
inline constexpr const char* kTransportOriginated = "net.transport.originated";
inline constexpr const char* kTransportForwarded = "net.transport.forwarded";
inline constexpr const char* kTransportRetransmissions = "net.transport.retransmissions";
inline constexpr const char* kTransportGaveUp = "net.transport.gave_up";
inline constexpr const char* kTransportDuplicates = "net.transport.duplicates";

// cluster::ClusterHead (aggregated over every CH)
inline constexpr const char* kClusterReportsReceived = "cluster.reports_received";
inline constexpr const char* kClusterWindowsOpened = "cluster.windows_opened";
inline constexpr const char* kClusterDecisions = "cluster.decisions";
inline constexpr const char* kClusterEventsDeclared = "cluster.events_declared";
inline constexpr const char* kClusterDecisionLatency = "cluster.decision_latency";
inline constexpr const char* kClusterCtiMargin = "cluster.cti_margin";

// core::TrustManager (aggregated over every instrumented trust table)
inline constexpr const char* kTrustPenalties = "trust.penalties";
inline constexpr const char* kTrustRewards = "trust.rewards";
inline constexpr const char* kTrustTiSamples = "trust.ti_samples";

// Fault injection (inject::Campaign + net::Channel fault schedules).
// Deliberately NOT part of preregister_standard_metrics: these names only
// appear in artifacts of runs that actually armed a campaign, keeping the
// artifact shape of injection-free runs byte-identical to pre-injection
// builds.
inline constexpr const char* kInjectedDrops = "net.channel.injected_drops";
inline constexpr const char* kInjectedDuplicates = "net.channel.injected_duplicates";
inline constexpr const char* kInjectedDelays = "net.channel.injected_delays";
inline constexpr const char* kInjectedReorders = "net.channel.injected_reorders";
inline constexpr const char* kInjectFailovers = "inject.failovers";
inline constexpr const char* kInjectFaultEvents = "inject.fault_events";
inline constexpr const char* kInjectDecisionsDegraded = "inject.decisions_degraded";

// exp::mean_epoch_accuracy trial aggregation
inline constexpr const char* kSweepTruncatedRuns = "exp.sweep.truncated_runs";

// Correctness tooling (tibfit::check + core safety nets). Deliberately
// NOT pre-registered: round_cap_hits only materialises when the step-5
// refinement loop is actually truncated, and the check.* counters only
// when a run enables the shadow oracle, keeping the artifact shape of
// ordinary runs byte-identical.
inline constexpr const char* kClustererRoundCapHits = "core.clusterer.round_cap_hits";
inline constexpr const char* kCheckDecisionsChecked = "check.decisions_checked";
inline constexpr const char* kCheckDivergences = "check.divergences";

// Experiment-level outcomes
inline constexpr const char* kExpAccuracy = "exp.accuracy";
inline constexpr const char* kExpEvents = "exp.events";
inline constexpr const char* kExpDetected = "exp.detected";
inline constexpr const char* kExpFalsePositives = "exp.false_positives";
inline constexpr const char* kExpIsolated = "exp.isolated";
inline constexpr const char* kExpMeanTi = "exp.mean_ti";
inline constexpr const char* kExpMeanTiCorrect = "exp.mean_ti_correct";
inline constexpr const char* kExpMeanTiFaulty = "exp.mean_ti_faulty";

}  // namespace metric

/// Canonical layouts for the catalogue histograms; finders and creators
/// must agree, so layers always construct them through these helpers.
HistogramMetric& decision_latency_histogram(Registry& r);
HistogramMetric& cti_margin_histogram(Registry& r);
HistogramMetric& ti_sample_histogram(Registry& r);

/// Creates every catalogue metric (zero-valued) so exported artifacts have
/// a stable shape regardless of which layers were active in the run.
void preregister_standard_metrics(Registry& r);

}  // namespace tibfit::obs
