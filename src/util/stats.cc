#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pim::util {

void
RunningStat::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const uint64_t total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta
        * (static_cast<double>(n_) * static_cast<double>(other.n_))
        / static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_)
        / static_cast<double>(total);
    n_ = total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

void
Percentile::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

double
Percentile::percentile(double p) const
{
    PIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank with linear interpolation between adjacent order
    // statistics (the "exclusive" definition used by numpy's default).
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
Percentile::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

void
Percentile::reset()
{
    samples_.clear();
    sorted_ = true;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        PIM_ASSERT(x > 0.0, "geomean requires positive values");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace pim::util
