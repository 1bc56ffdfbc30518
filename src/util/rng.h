// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulation (event placement, sensing
// noise, fault coin flips, channel drops, LEACH election) draws from its own
// named stream derived from a single experiment seed. This makes whole
// experiments bit-reproducible and keeps the randomness of one component
// independent of how often another component draws.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/vec2.h"

namespace tibfit::util {

/// The seed of replication `trial_index` in a multi-run sweep, as a pure
/// function of (base_seed, trial_index) — trials can therefore run in any
/// order (or concurrently) and still draw exactly the seed the historical
/// serial sweep loop produced: the affine recurrence
///   s_0 = base_seed,   s_{r+1} = s_r * 2654435761 + r + 1
/// evaluated through step trial_index+1. Keeping the published recurrence
/// keeps every bench curve bit-identical to the pre-parallel harness.
std::uint64_t derive_trial_seed(std::uint64_t base_seed, std::uint64_t trial_index);

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
  public:
    using result_type = std::uint64_t;

    /// Seeds via SplitMix64 so that nearby seeds yield unrelated states.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~static_cast<result_type>(0); }

    /// Next raw 64-bit draw. Inline with uniform() and chance(): they sit
    /// on every fault coin, channel drop and sensing-noise draw.
    result_type operator()() {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Derives an independent child stream identified by a label and index.
    /// The same (seed, label, index) always yields the same stream.
    Rng stream(std::string_view label, std::uint64_t index = 0) const;

    /// Uniform double in [0, 1): the 53 high bits of a draw.
    double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /// Uniform integer in [0, n) for n > 0.
    std::uint64_t uniform_index(std::uint64_t n);
    /// Bernoulli trial: true with probability p (clamped to [0, 1]).
    bool chance(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }
    /// Standard normal via Marsaglia polar method.
    double gaussian();
    /// Normal with given mean and standard deviation.
    double gaussian(double mean, double stddev);
    /// Exponential with given rate lambda (> 0).
    double exponential(double lambda);
    /// Uniform point in the axis-aligned rectangle [0,w) x [0,h).
    Vec2 point_in_rect(double w, double h);
    /// 2-D Gaussian displacement with independent N(0, sigma) per axis —
    /// the paper's location-report noise model (Table 2).
    Vec2 gaussian_offset(double sigma);

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    bool have_spare_ = false;
    double spare_ = 0.0;
};

}  // namespace tibfit::util
