#include "util/invariant.h"

#include <sstream>
#include <stdexcept>

#include "util/log.h"

namespace tibfit::util {

namespace detail {
std::atomic<std::uint64_t> g_invariant_violations{0};
}  // namespace detail

void invariant_violation(const char* file, int line, const char* expr,
                         const std::string& detail) {
    detail::g_invariant_violations.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream msg;
    msg << "invariant violated at " << file << ":" << line << ": " << expr;
    if (!detail.empty()) msg << " (" << detail << ")";
    log_warn() << msg.str();
    if (invariant_action() == InvariantAction::Throw) {
        throw std::logic_error(msg.str());
    }
}

}  // namespace tibfit::util
