/**
 * @file
 * Lightweight statistics containers used by the simulator, the allocator
 * instrumentation, and the benchmark harnesses: running moments and
 * percentile estimation from retained samples.
 */

#ifndef PIM_UTIL_STATS_HH
#define PIM_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pim::util {

/**
 * Online mean/variance/min/max accumulator (Welford's algorithm).
 * O(1) memory; suitable for very long event streams.
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Number of observations so far. */
    uint64_t count() const { return n_; }

    /** Arithmetic mean; 0 if empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance; 0 if fewer than two samples. */
    double variance() const;

    /** Standard deviation. */
    double stddev() const;

    /** Smallest observation; +inf if empty. */
    double min() const { return min_; }

    /** Largest observation; -inf if empty. */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(n_); }

    /** Reset to the empty state. */
    void reset();

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Sample reservoir with exact percentile queries.
 *
 * Stores all samples (the experiments here generate at most a few million
 * events) and sorts lazily on the first percentile query.
 */
class Percentile
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Exact p-th percentile, p in [0, 100]. Returns 0 if empty. */
    double percentile(double p) const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Number of samples. */
    size_t count() const { return samples_.size(); }

    /** Mean of all samples; 0 if empty. */
    double mean() const;

    /** Access to the raw (unsorted) samples, e.g. for time series plots. */
    const std::vector<double> &samples() const { return samples_; }

    /** Drop all samples. */
    void reset();

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &xs);

} // namespace pim::util

#endif // PIM_UTIL_STATS_HH
