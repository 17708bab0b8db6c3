#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace helix {

void
StatAccumulator::add(double value)
{
    samples.push_back(value);
    sorted = false;
    total += value;
}

void
StatAccumulator::merge(const StatAccumulator &other)
{
    if (other.samples.empty())
        return;
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    sorted = false;
    // Canonical re-summation: summing the merged multiset in sorted
    // order makes the total a function of the samples alone, not of
    // the merge order.
    ensureSorted();
    total = 0.0;
    for (double v : samples)
        total += v;
}

double
StatAccumulator::mean() const
{
    if (samples.empty())
        return 0.0;
    return total / static_cast<double>(samples.size());
}

double
StatAccumulator::stddev() const
{
    if (samples.size() < 2)
        return 0.0;
    double m = mean();
    double acc = 0.0;
    for (double v : samples)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(samples.size() - 1));
}

double
StatAccumulator::min() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.front();
}

double
StatAccumulator::max() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.back();
}

double
StatAccumulator::percentile(double p) const
{
    HELIX_ASSERT(p >= 0.0 && p <= 100.0);
    if (samples.empty())
        return 0.0;
    ensureSorted();
    if (samples.size() == 1)
        return samples[0];
    double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
    size_t lo_idx = static_cast<size_t>(std::floor(rank));
    size_t hi_idx = std::min(lo_idx + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo_idx);
    return samples[lo_idx] * (1.0 - frac) + samples[hi_idx] * frac;
}

void
StatAccumulator::clear()
{
    samples.clear();
    sorted = true;
    total = 0.0;
}

void
StatAccumulator::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

Histogram::Histogram(double lo_bound, double hi_bound, size_t num_buckets)
    : lo(lo_bound), hi(hi_bound),
      width((hi_bound - lo_bound) / static_cast<double>(num_buckets)),
      counts(num_buckets, 0)
{
    HELIX_ASSERT(hi_bound > lo_bound);
    HELIX_ASSERT(num_buckets > 0);
}

void
Histogram::add(double value)
{
    ++total;
    if (value < lo) {
        ++below;
        return;
    }
    if (value >= hi) {
        ++above;
        return;
    }
    // A value in [lo, hi) can still index past the last bucket when
    // (hi - lo) / num_buckets rounds the width down (or denormalizes):
    // such samples belong to overflow, not to a silently-stretched
    // last bucket.
    double offset = (value - lo) / width;
    if (!(offset < static_cast<double>(counts.size()))) {
        ++above;
        return;
    }
    ++counts[static_cast<size_t>(offset)];
}

size_t
Histogram::bucketCount(size_t index) const
{
    HELIX_ASSERT(index < counts.size());
    return counts[index];
}

double
Histogram::bucketLow(size_t index) const
{
    return lo + width * static_cast<double>(index);
}

double
Histogram::bucketHigh(size_t index) const
{
    return lo + width * static_cast<double>(index + 1);
}

std::string
Histogram::render(size_t max_width) const
{
    size_t peak = 1;
    for (size_t c : counts)
        peak = std::max(peak, c);
    std::ostringstream out;
    for (size_t i = 0; i < counts.size(); ++i) {
        size_t bar = counts[i] * max_width / peak;
        out << "[" << bucketLow(i) << ", " << bucketHigh(i) << ") "
            << std::string(bar, '#') << " " << counts[i] << "\n";
    }
    return out.str();
}

} // namespace helix
