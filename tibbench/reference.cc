#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tibbench {

double reference_kernel() {
    constexpr std::size_t kTable = std::size_t{1} << 15;
    constexpr std::uint32_t kQueue = 2048;
    constexpr int kSteps = 6000;
    static const std::vector<double> table = [] {
        std::vector<double> t(kTable);
        for (std::size_t i = 0; i < kTable; ++i) t[i] = std::sin(static_cast<double>(i));
        return t;
    }();

    using Entry = std::pair<double, std::uint32_t>;
    auto later = [](const Entry& a, const Entry& b) { return a.first > b.first; };
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(x >> 33);
    };

    std::vector<Entry> heap;
    heap.reserve(kQueue);
    for (std::uint32_t i = 0; i < kQueue; ++i) {
        heap.emplace_back(static_cast<double>(next() % 100000), i);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    double acc = 0.0;
    for (int step = 0; step < kSteps; ++step) {
        std::pop_heap(heap.begin(), heap.end(), later);
        const Entry e = heap.back();
        heap.pop_back();
        const double v = table[(e.second * 2654435761U + next()) % kTable];
        acc += std::exp(-std::fabs(v)) * e.first;
        heap.emplace_back(e.first + static_cast<double>(next() % 1000) + v, e.second);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    return acc;
}

}  // namespace tibbench
