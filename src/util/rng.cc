#include "util/rng.h"

#include <cmath>

namespace tibfit::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// FNV-1a over a label, used to mix stream names into seeds.
std::uint64_t hash_label(std::string_view label) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : label) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::uint64_t trial_index) {
    // O(trial_index) multiply-adds; sweeps run at most a few thousand
    // trials, so recomputing the prefix per trial is noise next to one
    // simulated event. Rng's SplitMix64 seed expansion decorrelates the
    // (intentionally simple) affine seed sequence.
    std::uint64_t s = base_seed;
    for (std::uint64_t r = 0; r <= trial_index; ++r) s = s * 2654435761ULL + r + 1;
    return s;
}

Rng::Rng(std::uint64_t seed) {
    // SplitMix64 expansion guarantees a non-zero state for any seed.
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::stream(std::string_view label, std::uint64_t index) const {
    // Derive a child seed from the parent state (without advancing it),
    // the label hash, and the index.
    std::uint64_t mix = s_[0] ^ rotl(s_[2], 13);
    mix ^= hash_label(label);
    mix += 0x632be59bd9b4e019ULL * (index + 1);
    return Rng(mix);
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold) return r % n;
    }
}

double Rng::gaussian() {
    if (have_spare_) {
        have_spare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
}

double Rng::gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
}

double Rng::exponential(double lambda) {
    // uniform() can return 0; 1 - uniform() is in (0, 1].
    return -std::log(1.0 - uniform()) / lambda;
}

Vec2 Rng::point_in_rect(double w, double h) {
    return {uniform(0.0, w), uniform(0.0, h)};
}

Vec2 Rng::gaussian_offset(double sigma) {
    return {gaussian(0.0, sigma), gaussian(0.0, sigma)};
}

}  // namespace tibfit::util
