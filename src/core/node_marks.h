// A dense set of NodeIds for the arbiters' per-decision membership tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/report.h"

namespace tibfit::core {

/// Set of NodeIds below a universe size, stored as one epoch stamp per id:
/// emptying it is a counter bump, and lookups are one indexed load. The
/// storage only grows, so an arbiter that owns one allocates nothing once
/// it has seen its largest cluster.
class NodeMarks {
  public:
    /// Empties the set and makes every id below `universe` markable.
    void reset(std::size_t universe) {
        if (stamps_.size() < universe) stamps_.resize(universe, 0);
        if (++epoch_ == 0) {  // wrapped: old stamps would read as current
            std::fill(stamps_.begin(), stamps_.end(), 0u);
            epoch_ = 1;
        }
    }

    /// Adds `n` (< universe); returns false if it was already present.
    bool insert(NodeId n) {
        if (stamps_[n] == epoch_) return false;
        stamps_[n] = epoch_;
        return true;
    }

    /// True if `n` (< universe) is present.
    bool contains(NodeId n) const { return stamps_[n] == epoch_; }

  private:
    std::vector<std::uint32_t> stamps_;
    std::uint32_t epoch_ = 0;
};

}  // namespace tibfit::core
