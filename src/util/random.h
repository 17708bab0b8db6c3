/**
 * @file
 * Deterministic random-number generation for Helix.
 *
 * All stochastic components (trace generation, random scheduling
 * baselines, randomized tests) draw from these generators so that every
 * experiment is reproducible from a single seed. We implement
 * SplitMix64 (seeding) and Xoshiro256** (bulk generation) rather than
 * depending on std::mt19937 so the bit streams are identical across
 * standard libraries.
 */

#ifndef HELIX_UTIL_RANDOM_H
#define HELIX_UTIL_RANDOM_H

#include <cmath>
#include <cstdint>
#include <vector>

namespace helix {

/**
 * SplitMix64: tiny, high-quality 64-bit generator used to expand a
 * single seed into the state of larger generators.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    /** Return the next 64-bit value. */
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t state;
};

/**
 * Xoshiro256** general-purpose generator with convenience samplers for
 * the distributions Helix needs (uniform, exponential, log-normal,
 * discrete weighted choice).
 */
class Rng
{
  public:
    /** Construct from a seed; the state is expanded via SplitMix64. */
    explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

    /**
     * Split off an independent child stream. The child's seed is
     * derived from this generator's CONSTRUCTION seed and @p stream
     * through a domain-separated SplitMix64 step, never from the
     * current state: fork(i) returns the same generator no matter how
     * many values the parent has drawn, in which order the forks
     * happen, or which thread calls it. Distinct stream ids yield
     * decorrelated sequences (e.g. the tenant-label stream of a
     * trace).
     */
    [[nodiscard]] Rng fork(uint64_t stream) const;

    /** Next raw 64-bit value. */
    [[nodiscard]] uint64_t nextU64();

    /** Uniform double in [0, 1). */
    [[nodiscard]] double nextDouble();

    /** Uniform integer in [0, bound) with rejection to avoid bias. */
    [[nodiscard]] uint64_t nextBounded(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    [[nodiscard]] int64_t nextInt(int64_t lo, int64_t hi);

    /** Uniform double in [lo, hi). */
    [[nodiscard]] double nextUniform(double lo, double hi);

    /** Exponential with the given rate (mean 1/rate). */
    [[nodiscard]] double nextExponential(double rate);

    /** Normal via Box-Muller. */
    [[nodiscard]] double nextNormal(double mean, double stddev);

    /** Log-normal parameterized by the underlying normal's mu/sigma. */
    [[nodiscard]] double nextLogNormal(double mu, double sigma);

    /**
     * Sample an index proportionally to the given non-negative weights.
     * @return index in [0, weights.size()), or SIZE_MAX if all weights
     *         are zero.
     */
    [[nodiscard]] size_t nextWeighted(const std::vector<double> &weights);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            size_t j = nextBounded(i);
            std::swap(items[i - 1], items[j]);
        }
    }

  private:
    uint64_t s[4];
    /** Construction seed, retained so fork() is state-independent. */
    uint64_t seed0;
};

} // namespace helix

#endif // HELIX_UTIL_RANDOM_H
