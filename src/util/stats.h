/**
 * @file
 * Streaming statistics accumulators and histograms used by the
 * simulator's metric collection and by the benchmark harnesses.
 */

#ifndef HELIX_UTIL_STATS_H
#define HELIX_UTIL_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace helix {

/**
 * Accumulates samples and answers mean / stddev / min / max /
 * percentile queries. Samples are retained so exact percentiles can be
 * computed; metric volumes in Helix experiments are modest (at most a
 * few million samples).
 */
class StatAccumulator
{
  public:
    /** Add one sample. */
    void add(double value);

    /**
     * Fold @p other's samples into this accumulator. Associative and
     * order-insensitive at the byte level: the running sum is
     * recomputed over the merged samples in a canonical (sorted)
     * order, so any merge tree over the same sample multiset reports
     * bit-identical mean/sum — floating-point addition is not
     * associative, and accumulating in arrival order would make the
     * emitted digits depend on which partial result merged first.
     */
    void merge(const StatAccumulator &other);

    /** Number of samples recorded so far. */
    size_t count() const { return samples.size(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Sample standard deviation; 0 when fewer than two samples. */
    double stddev() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return total; }

    /**
     * Exact percentile via linear interpolation between order
     * statistics.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Median (50th percentile). */
    double median() const { return percentile(50.0); }

    /** Discard all samples. */
    void clear();

  private:
    /** Sort the retained samples if new ones arrived since last sort. */
    void ensureSorted() const;

    mutable std::vector<double> samples;
    mutable bool sorted = true;
    double total = 0.0;
};

/**
 * Fixed-width histogram over [lo, hi) with overflow/underflow buckets,
 * used for reproducing the trace-statistics figure.
 */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket
     * @param num_buckets number of equal-width buckets
     */
    Histogram(double lo, double hi, size_t num_buckets);

    /** Record one sample. */
    void add(double value);

    /** Count in bucket @p index. */
    size_t bucketCount(size_t index) const;

    /** Inclusive lower edge of bucket @p index. */
    double bucketLow(size_t index) const;

    /** Exclusive upper edge of bucket @p index. */
    double bucketHigh(size_t index) const;

    size_t numBuckets() const { return counts.size(); }
    size_t underflow() const { return below; }
    size_t overflow() const { return above; }
    size_t totalCount() const { return total; }

    /** Render a compact ASCII bar chart (one line per bucket). */
    std::string render(size_t max_width = 50) const;

  private:
    double lo;
    double hi;
    double width;
    std::vector<size_t> counts;
    size_t below = 0;
    size_t above = 0;
    size_t total = 0;
};

} // namespace helix

#endif // HELIX_UTIL_STATS_H
