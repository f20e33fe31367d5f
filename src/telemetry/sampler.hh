/**
 * @file
 * Simulated-time series sampler. The CommandQueue drives it from the
 * sequential drain fold's single emission path: each busy lane
 * interval the fold emits (bus, host lanes, ranks), the same one a
 * trace recorder turns into a span, and each resolved command's
 * in-flight window, binned at a fixed simulated-time cadence. Because
 * the fold runs in enqueue order regardless of the worker-thread count,
 * the binned series are bit-identical across PIM_SIM_THREADS — and
 * because the clock is the modeled timeline, the curves are properties
 * of the experiment, not of the host machine.
 *
 * Two series kinds:
 *  - utilization: accumulate(sid, t0, t1) distributes busy seconds
 *    over the bins the interval overlaps; a bin's value is
 *    busy / cadence (a fraction for a single lane, an average
 *    busy-resource count for aggregated series like "ranks_busy").
 *  - level: eventDelta(sid, t, ±1) records steps (queue depth); a
 *    bin's value is the level at the end of the bin (prefix sum).
 */

#ifndef PIM_TELEMETRY_SAMPLER_HH
#define PIM_TELEMETRY_SAMPLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pim::telemetry {

/** Fixed-cadence simulated-time series store. */
class TimelineSampler
{
  public:
    /** @param cadence_sec bin width in simulated seconds. */
    explicit TimelineSampler(double cadence_sec = 0.01);

    double cadence() const { return cadence_; }

    /** Get-or-create the utilization series named @p name. */
    int series(const std::string &name);

    /** Get-or-create the level series named @p name. */
    int levelSeries(const std::string &name);

    /** True if @p name exists (does not create). */
    bool has(const std::string &name) const
    {
        return index_.count(name) != 0;
    }

    /** Add the busy interval [t0, t1) to utilization series @p sid. */
    void accumulate(int sid, double t0, double t1);

    /** Apply @p delta to level series @p sid at time @p t. */
    void eventDelta(int sid, double t, int64_t delta);

    /** One exported series: per-bin values at the shared cadence. */
    struct SeriesSnapshot
    {
        std::string name;
        /** Level series (queue depth) vs utilization series. */
        bool level = false;
        /** Bin i covers [i*cadence, (i+1)*cadence). */
        std::vector<double> values;
    };

    /** All series, in creation order, padded to the common length. */
    std::vector<SeriesSnapshot> snapshot() const;

    /** True if no series was ever created. */
    bool empty() const { return series_.empty(); }

  private:
    struct Series
    {
        std::string name;
        bool level = false;
        /** Utilization: busy seconds per bin. */
        std::vector<double> busy;
        /** Level: step deltas keyed by bin. */
        std::map<int64_t, int64_t> deltas;
    };

    int64_t binOf(double t) const;

    double cadence_;
    std::vector<Series> series_;
    std::map<std::string, int> index_;
    /** Highest bin touched by any series (snapshot padding). */
    int64_t maxBin_ = -1;
};

} // namespace pim::telemetry

#endif // PIM_TELEMETRY_SAMPLER_HH
