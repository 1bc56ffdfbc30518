#include "core/trust.h"

#include <cmath>
#include <stdexcept>

#include "obs/names.h"
#include "obs/recorder.h"
#include "util/invariant.h"

namespace tibfit::core {

namespace {

std::string cell_detail(NodeId node, double v, double ti) {
    return "node " + std::to_string(node) + " v=" + std::to_string(v) +
           " ti=" + std::to_string(ti);
}

}  // namespace

std::vector<std::string> TrustParams::validate() const {
    std::vector<std::string> errors;
    if (lambda <= 0.0) errors.push_back("trust lambda must be > 0");
    if (fault_rate > 1.0) errors.push_back("trust fault_rate > 1");
    if (removal_ti < 0.0 || removal_ti >= 1.0) {
        errors.push_back("removal_ti outside [0, 1)");
    }
    return errors;
}

double TrustIndex::ti(const TrustParams& p) const { return std::exp(-p.lambda * v_); }

TrustManager::Cell& TrustManager::touch(NodeId node) {
    if (node == kNoNode) {
        throw std::invalid_argument("TrustManager: cannot record history for kNoNode");
    }
    if (node >= cells_.size()) cells_.resize(node + 1);
    Cell& c = cells_[node];
    if (!c.seen) {
        c.seen = true;
        ++tracked_;
    }
    return c;
}

double TrustManager::v(NodeId node) const {
    return node < cells_.size() && cells_[node].seen ? cells_[node].v : 0.0;
}

void TrustManager::judge_correct(NodeId node) {
    Cell& c = touch(node);
    // Same arithmetic as TrustIndex::record_correct.
    c.v -= params_.fault_rate;
    if (c.v < 0.0) c.v = 0.0;
    c.ti = std::exp(-params_.lambda * c.v);
    TIBFIT_CHECK(c.v >= 0.0 && c.ti > 0.0 && c.ti <= 1.0, cell_detail(node, c.v, c.ti));
    if (recorder_) note_update(node, /*penalty=*/false, c);
}

void TrustManager::judge_faulty(NodeId node) {
    Cell& c = touch(node);
    // Same arithmetic as TrustIndex::record_faulty.
    c.v += 1.0 - params_.fault_rate;
    c.ti = std::exp(-params_.lambda * c.v);
    TIBFIT_CHECK(c.v >= 0.0 && c.ti > 0.0 && c.ti <= 1.0, cell_detail(node, c.v, c.ti));
    if (recorder_) note_update(node, /*penalty=*/true, c);
}

void TrustManager::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    c_penalties_ = c_rewards_ = nullptr;
    h_ti_ = nullptr;
    if (!recorder_) return;
    auto& reg = recorder_->metrics();
    c_penalties_ = &reg.counter(obs::metric::kTrustPenalties);
    c_rewards_ = &reg.counter(obs::metric::kTrustRewards);
    h_ti_ = &obs::ti_sample_histogram(reg);
}

void TrustManager::note_update(NodeId node, bool penalty, const Cell& cell) const {
    if (penalty) {
        c_penalties_->inc();
    } else {
        c_rewards_->inc();
    }
    h_ti_->observe(cell.ti);
    if (recorder_->trace().enabled()) {
        recorder_->trace().append(recorder_->now(),
                                  obs::TrustUpdated{static_cast<std::uint32_t>(node), penalty,
                                                    cell.v, cell.ti});
    }
}

double TrustManager::cumulative_ti(const std::vector<NodeId>& nodes) const {
    double sum = 0.0;
    for (NodeId n : nodes) sum += ti(n);
    return sum;
}

void TrustManager::quarantine(NodeId node) {
    // v needed for TI = removal_ti / 2 (or a strong fixed penalty when
    // isolation is off). removal_ti is clamped to 1 so an out-of-range
    // threshold (>= 2 made target_v <= 0, a silent no-op) still yields a
    // positive target below any legal threshold; valid params in (0, 1)
    // are arithmetically untouched by the clamp.
    double target_v = 10.0 / params_.lambda * 0.25;  // ~TI = e^{-2.5}
    if (params_.removal_ti > 0.0) {
        const double capped = params_.removal_ti < 1.0 ? params_.removal_ti : 1.0;
        target_v = -std::log(capped * 0.5) / params_.lambda;
    }
    Cell& c = touch(node);
    if (c.v < target_v) {
        c.v = target_v < 0.0 ? 0.0 : target_v;
        c.ti = std::exp(-params_.lambda * c.v);
    }
    TIBFIT_CHECK(c.v > 0.0 && (params_.removal_ti <= 0.0 || is_isolated(node)),
                 cell_detail(node, c.v, c.ti));
}

void TrustManager::forget(NodeId node) {
    if (node < cells_.size() && cells_[node].seen) {
        cells_[node] = Cell{};
        --tracked_;
    }
}

void TrustManager::reinstate(NodeId node) {
    Cell& c = touch(node);
    c.v = 0.0;
    c.ti = 1.0;
}

std::vector<std::pair<NodeId, double>> TrustManager::export_v() const {
    std::vector<std::pair<NodeId, double>> out;
    out.reserve(tracked_);
    // Dense ascending iteration: already in wire order (ascending node id).
    for (NodeId n = 0; n < cells_.size(); ++n) {
        if (cells_[n].seen) out.emplace_back(n, cells_[n].v);
    }
    return out;
}

void TrustManager::import_v(const std::vector<std::pair<NodeId, double>>& values) {
    cells_.clear();
    tracked_ = 0;
    merge_v(values);
}

void TrustManager::merge_v(const std::vector<std::pair<NodeId, double>>& values) {
    for (const auto& [id, v] : values) {
        Cell& c = touch(id);
        c.v = v < 0.0 ? 0.0 : v;  // same clamping as TrustIndex::from_v
        c.ti = std::exp(-params_.lambda * c.v);
    }
}

TrustCheckpoint TrustManager::checkpoint() const {
    return TrustCheckpoint{params_, export_v()};
}

TrustManager TrustManager::restore(const TrustCheckpoint& snapshot, obs::Recorder* recorder) {
    TrustManager t(snapshot.params);
    t.import_v(snapshot.v);
    t.set_recorder(recorder);
    // Round-trip losslessness: re-exporting must reproduce the snapshot
    // exactly, modulo the documented negative-v clamp of the wire format.
    if (util::invariant_checks_on()) {
        const auto back = t.export_v();
        bool ok = back.size() == snapshot.v.size();
        for (std::size_t i = 0; ok && i < back.size(); ++i) {
            const double want = snapshot.v[i].second < 0.0 ? 0.0 : snapshot.v[i].second;
            ok = back[i].first == snapshot.v[i].first && back[i].second == want;
        }
        TIBFIT_CHECK(ok, "checkpoint/restore round-trip mismatch (" +
                             std::to_string(snapshot.v.size()) + " entries)");
    }
    return t;
}

std::vector<NodeId> TrustManager::isolated_nodes() const {
    std::vector<NodeId> out;
    for (NodeId n = 0; n < cells_.size(); ++n) {
        if (cells_[n].seen && is_isolated(n)) out.push_back(n);
    }
    return out;
}

}  // namespace tibfit::core
