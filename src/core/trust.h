// The trust-index state machine (Section 3) and the per-node trust table a
// cluster head maintains.
//
//   TI = exp(-lambda * v)
//   report judged faulty  : v += (1 - f_r)
//   report judged correct : v -= f_r          (floored at 0)
//
// so a correct node erring exactly at its natural error rate f_r has zero
// expected drift: E[dv] = f_r*(1-f_r) - (1-f_r)*f_r = 0.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/report.h"

namespace tibfit::obs {
class Counter;
class HistogramMetric;
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::core {

/// Tunables of the trust model. The paper uses lambda = 0.1 (Experiment 1)
/// and lambda = 0.25 (Experiments 2-3); f_r equals the NER in Experiment 1
/// and 0.1 in Experiment 2 (Table 2).
struct TrustParams {
    double lambda = 0.25;     ///< TI decay constant (paper's λ).
    double fault_rate = 0.1;  ///< Granted natural error rate (paper's f_r).
    /// Nodes whose TI falls below this are diagnosed as faulty and isolated:
    /// they stop being counted as event neighbours (Section 3.1 "removed
    /// from the network"). Set to 0 to disable isolation. Must be in
    /// [0, 1): TI never exceeds 1, so a threshold of 1 or more would
    /// isolate every node (and used to make quarantine() a silent no-op).
    double removal_ti = 0.05;

    /// Structural consistency check; one message per defect, empty ==
    /// valid. exp::Scenario::validate() delegates here.
    std::vector<std::string> validate() const;
};

/// Per-node trust accumulator. Only `v` is state; TI is derived.
class TrustIndex {
  public:
    /// Records a report the CH judged faulty.
    void record_faulty(const TrustParams& p) { v_ += 1.0 - p.fault_rate; }

    /// Records a report the CH judged correct.
    void record_correct(const TrustParams& p) {
        v_ -= p.fault_rate;
        if (v_ < 0.0) v_ = 0.0;
    }

    /// Raw accumulator value (>= 0).
    double v() const { return v_; }

    /// Reconstructs an accumulator from a transferred raw value (trust
    /// archive transfer between CH and base station, Section 2).
    static TrustIndex from_v(double v) {
        TrustIndex t;
        t.v_ = v < 0.0 ? 0.0 : v;
        return t;
    }

    /// Trust index in (0, 1]; 1 for a fresh node.
    double ti(const TrustParams& p) const;

  private:
    double v_ = 0.0;
};

/// A serialized snapshot of a trust table: the parameters plus every
/// tracked node's raw `v` accumulator in ascending node order. This is the
/// TI-transfer wire format promoted to a value type, so the same state can
/// be archived at a base station, shipped across a CH rotation, or restored
/// into a successor after a CH crash (warm failover). TI is derived state
/// and deliberately not stored: restoring recomputes exp(-lambda*v) through
/// the same code path every mutation uses, so a restored table is
/// bit-identical to the one that was checkpointed.
struct TrustCheckpoint {
    TrustParams params;
    std::vector<std::pair<NodeId, double>> v;
};

/// The CH-side trust table: node id -> TrustIndex, plus diagnosis.
///
/// The table is a value type so it can be shipped to the base station at the
/// end of a CH's leadership and handed to the next CH (Section 2).
///
/// Storage is a dense vector indexed by NodeId (node ids are small,
/// contiguous cluster-member ids) with the trust index memoised per cell:
/// `ti()` is a pure function of the accumulator v, which only changes on a
/// judgement/adoption, yet the arbiters query it inside every CTI sum of
/// every decision. Each mutation recomputes std::exp(-lambda*v) once and
/// every query returns the cached value — bit-identical to recomputing,
/// since both evaluate the same std::exp on the same (lambda, v).
class TrustManager {
  public:
    explicit TrustManager(TrustParams params = {}) : params_(params) {}

    const TrustParams& params() const { return params_; }

    /// Current TI of a node (1.0 if never seen). Inline with is_isolated():
    /// the arbiters read them for every neighbour of every decision.
    double ti(NodeId node) const {
        return node < cells_.size() && cells_[node].seen ? cells_[node].ti : 1.0;
    }

    /// Raw v accumulator of a node (0.0 if never seen).
    double v(NodeId node) const;

    /// Applies a correct-report judgement to a node.
    void judge_correct(NodeId node);

    /// Applies a faulty-report judgement to a node.
    void judge_faulty(NodeId node);

    /// Sum of trust indices over a set of nodes — the paper's CTI.
    double cumulative_ti(const std::vector<NodeId>& nodes) const;

    /// True if the node has been diagnosed (TI < removal_ti) and should no
    /// longer be treated as an event neighbour.
    bool is_isolated(NodeId node) const {
        return params_.removal_ti > 0.0 && ti(node) < params_.removal_ti;
    }

    /// All nodes currently isolated, in ascending id order.
    std::vector<NodeId> isolated_nodes() const;

    /// Number of nodes with any recorded history.
    std::size_t tracked() const { return tracked_; }

    /// Forgets a node entirely (e.g. it physically left the cluster).
    void forget(NodeId node);

    /// Resets a node's trust to the initial state (limited recovery after
    /// re-admission).
    void reinstate(NodeId node);

    /// Serializes the table as (node, v) pairs in ascending node order —
    /// the TI-transfer wire format (CH <-> base station, Section 2).
    std::vector<std::pair<NodeId, double>> export_v() const;

    /// Replaces the table from (node, v) pairs.
    void import_v(const std::vector<std::pair<NodeId, double>>& values);

    /// Merges (node, v) pairs into the table, overwriting only the listed
    /// nodes — the base station combining per-cluster deposits without
    /// losing other clusters' history.
    void merge_v(const std::vector<std::pair<NodeId, double>>& values);

    /// Serializes the complete table state (params + v accumulators).
    TrustCheckpoint checkpoint() const;

    /// Reconstructs a table from a checkpoint. Pass the recorder the
    /// checkpointed table was instrumented with (or the successor's) so
    /// post-restore judgements keep flowing into metrics/traces — a
    /// restored table used to come back detached, silently dropping
    /// trust.penalties after a warm CH failover.
    static TrustManager restore(const TrustCheckpoint& snapshot,
                                obs::Recorder* recorder = nullptr);

    /// Applies an externally decided judgement stream (shadow CHs mirror
    /// the same inputs; the base station demotes a faulty CH): identical to
    /// judge_correct/judge_faulty but named for intent at call sites.
    void penalize(NodeId node) { judge_faulty(node); }

    /// Forces the node's trust below the removal threshold so that
    /// is_isolated() diagnoses it immediately (used by out-of-band evidence
    /// such as the collusion detector). Never *raises* v. With isolation
    /// disabled (removal_ti <= 0) this applies a strong fixed penalty
    /// instead.
    void quarantine(NodeId node);

    /// Counts judgements (trust.penalties / trust.rewards), samples each
    /// post-update TI into the trust.ti_samples histogram, and — with
    /// tracing on — emits a TrustUpdated record per judgement, timestamped
    /// via the recorder's clock. nullptr detaches. The attachment survives
    /// copies of this value type, but a table *replaced* wholesale (CH
    /// rotation adopting an archive) starts detached — the owner must
    /// re-attach.
    void set_recorder(obs::Recorder* recorder);

  private:
    /// One dense table cell. `ti` caches exp(-lambda * v) and is refreshed
    /// on every v mutation; `seen` distinguishes recorded history from the
    /// implicit fresh state (ti = 1) of an untouched slot.
    struct Cell {
        double v = 0.0;
        double ti = 1.0;
        bool seen = false;
    };

    /// Grows the table to cover `node` and marks it seen. Throws
    /// std::invalid_argument on the kNoNode sentinel (a dense table must
    /// never be asked to materialise 2^32 cells).
    Cell& touch(NodeId node);

    void note_update(NodeId node, bool penalty, const Cell& cell) const;

    TrustParams params_;
    std::vector<Cell> cells_;
    std::size_t tracked_ = 0;
    obs::Recorder* recorder_ = nullptr;
    obs::Counter* c_penalties_ = nullptr;
    obs::Counter* c_rewards_ = nullptr;
    obs::HistogramMetric* h_ti_ = nullptr;
};

}  // namespace tibfit::core
