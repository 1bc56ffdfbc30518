#include "sim/simulator.h"

namespace tibfit::sim {

bool Simulator::cancel(Timer& timer) {
    if (!timer.armed_) return false;
    timer.armed_ = false;
    return queue_.cancel(timer.id_);
}

bool Simulator::step() {
    if (queue_.empty()) return false;
    ++executed_;
    queue_.run_next(now_);
    return true;
}

std::size_t Simulator::run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
}

std::size_t Simulator::run_until(Time deadline) {
    std::size_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= deadline) {
        step();
        ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
}

}  // namespace tibfit::sim
