// Message taxonomy of the simulated sensor network. A Packet is a tagged
// payload plus addressing; the channel delivers it into Process inboxes.
#pragma once

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "core/report.h"
#include "sim/process.h"
#include "util/vec2.h"

namespace tibfit::net {

/// Destination id meaning "every process in radio range".
inline constexpr sim::ProcessId kBroadcast = static_cast<sim::ProcessId>(-2);

/// A sensing node's event report: polar offset relative to the reporter
/// (Section 3.2 wire format). `positive` is the binary-model claim.
struct ReportPayload {
    core::PolarOffset offset;
    bool positive = true;
    bool has_location = false;
};

/// LEACH cluster-head advertisement (Section 2).
struct ChAdvertPayload {
    double signal_strength = 0.0;
    std::uint32_t round = 0;
};

/// A node affiliating with the advertising CH.
struct AffiliatePayload {
    std::uint32_t round = 0;
};

/// A node's verdict bits in one decision: kJudgedCorrect if the node is in
/// judged_correct, kJudgedFaulty if in judged_faulty (both if in both).
inline constexpr unsigned kJudgedCorrect = 1;
inline constexpr unsigned kJudgedFaulty = 2;

/// CH decision broadcast. Includes the per-node judgements so nodes (and
/// shadow CHs, and "smart" adversaries mirroring their own TI) can track
/// the CH's bookkeeping. The lists are the record; a receiver asks
/// verdict_of(own id), which costs one bit test whatever the lists' length.
struct DecisionPayload {
    std::uint64_t decision_seq = 0;  ///< per-CH decision counter (matches SCH alerts)
    bool event_declared = false;
    bool has_location = false;
    util::Vec2 location;
    std::vector<core::NodeId> judged_correct;
    std::vector<core::NodeId> judged_faulty;

    /// kJudgedCorrect / kJudgedFaulty bits of `id` (each counts once, even
    /// for an id a list repeats). The first query indexes the lists: edit
    /// them only before it, or in a copy. Not thread-safe: a body is read
    /// by one simulator's receivers only.
    unsigned verdict_of(core::NodeId id) const {
        return verdicts_.lookup(judged_correct, judged_faulty, id);
    }

  private:
    /// The verdict bits of every node id a decision names, two bits per id,
    /// built from the judgement lists on the first query. A copy starts
    /// unbuilt (the copy's lists may be edited before its first query); a move
    /// carries the index with the lists.
    class VerdictIndex {
      public:
        VerdictIndex() = default;
        VerdictIndex(const VerdictIndex&) noexcept {}
        VerdictIndex& operator=(const VerdictIndex&) noexcept {
            words_.clear();
            return *this;
        }
        VerdictIndex(VerdictIndex&& o) noexcept : words_(std::move(o.words_)) { o.words_.clear(); }
        VerdictIndex& operator=(VerdictIndex&& o) noexcept {
            words_ = std::move(o.words_);
            o.words_.clear();
            return *this;
        }

        /// The verdict bits of `id`; 0 for an id in neither list. Empty lists
        /// leave the index empty, so they "rebuild" on every query for free.
        unsigned lookup(const std::vector<core::NodeId>& correct,
                        const std::vector<core::NodeId>& faulty, core::NodeId id) {
            if (words_.empty()) build(correct, faulty);
            const std::size_t word = id / kIdsPerWord;
            if (word >= words_.size()) return 0;
            return static_cast<unsigned>(words_[word] >> (2 * (id % kIdsPerWord))) & 3u;
        }

      private:
        static constexpr std::size_t kIdsPerWord = 32;

        /// Out of line: it runs once per body, the lookup once per receiver.
        [[gnu::noinline]] void build(const std::vector<core::NodeId>& correct,
                                     const std::vector<core::NodeId>& faulty) {
            if (correct.empty() && faulty.empty()) return;
            core::NodeId top = 0;
            for (core::NodeId n : correct) top = n > top ? n : top;
            for (core::NodeId n : faulty) top = n > top ? n : top;
            words_.assign(top / kIdsPerWord + 1, 0);
            const auto mark = [this](core::NodeId n, std::uint64_t bit) {
                words_[n / kIdsPerWord] |= bit << (2 * (n % kIdsPerWord));
            };
            for (core::NodeId n : correct) mark(n, kJudgedCorrect);
            for (core::NodeId n : faulty) mark(n, kJudgedFaulty);
        }

        std::vector<std::uint64_t> words_;
    };

    mutable VerdictIndex verdicts_;
};

/// Trust-table transfer: (node id, raw v accumulator) pairs. Sent CH ->
/// base station at end of leadership and base station -> new CH on request.
struct TiTransferPayload {
    std::vector<std::pair<core::NodeId, double>> v_values;
};

/// Request from a newly elected CH for its cluster's TI archive.
struct TiRequestPayload {
    std::uint32_t round = 0;
};

/// Shadow-CH alert to the base station: the shadow's own conclusion
/// diverged from what the CH announced (Section 3.4).
struct SchAlertPayload {
    std::uint64_t decision_seq = 0;       ///< the CH decision being disputed
    sim::ProcessId ch = sim::kNoProcess;  ///< the CH that announced it
    bool event_declared = false;          ///< the shadow's own conclusion
    bool has_location = false;
    util::Vec2 location;
};

/// Multi-hop envelope (Section 3.4 extension): a report travelling
/// hop-by-hop toward a data sink more than one radio hop away. Identity is
/// (source, seq) end to end; each hop is acknowledged and retransmitted by
/// the ReliableTransport shim.
struct RelayEnvelopePayload {
    sim::ProcessId source = sim::kNoProcess;     ///< originating sensor
    sim::ProcessId final_dst = sim::kNoProcess;  ///< the data sink
    std::uint32_t seq = 0;                       ///< source-local sequence
    std::uint8_t ttl = 16;                       ///< hops remaining
    ReportPayload report;
};

/// Hop-by-hop acknowledgement of a RelayEnvelopePayload.
struct RelayAckPayload {
    sim::ProcessId source = sim::kNoProcess;
    std::uint32_t seq = 0;
};

using Payload = std::variant<ReportPayload, ChAdvertPayload, AffiliatePayload,
                             DecisionPayload, TiTransferPayload, TiRequestPayload,
                             SchAlertPayload, RelayEnvelopePayload, RelayAckPayload>;

/// One message on the air.
struct Packet {
    sim::ProcessId src = sim::kNoProcess;
    sim::ProcessId dst = sim::kNoProcess;  ///< kBroadcast for broadcasts
    double sent_at = 0.0;
    /// Received signal strength, stamped by the channel on delivery
    /// (free-space model, 1 / (1 + d^2)). LEACH affiliation picks the CH
    /// "based on the strength of the signal received" (Section 2).
    double rssi = 0.0;
    Payload payload;

    template <typename T>
    const T* as() const {
        return std::get_if<T>(&payload);
    }
};

}  // namespace tibfit::net
