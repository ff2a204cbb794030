/**
 * @file
 * Interval time-series sampling of a live run (DESIGN.md §11).
 *
 * The fetch engine calls onBoundary() every `interval` retired
 * correct-path instructions (the engine aligns its batched fast path
 * so boundaries land exactly); the sampler differences the cumulative
 * SimResults against the previous boundary and appends one
 * EpochRecord. The engine brings the slot clock (finalSlot) and the
 * prefetch count up to date before every call, so each epoch is the
 * difference of two snapshots of the run's stats. finish() closes the
 * series with a partial epoch when the run ends off-boundary.
 *
 * The sampler never mutates simulation state and reads only the stats
 * structure the run already maintains, so sampled and unsampled runs
 * produce bit-identical SimResults (tests/obs pins this). Epoch
 * content carries no wall-clock anything — the series is deterministic
 * and identical between serial and parallel sweeps.
 */

#ifndef SPECFETCH_OBS_INTERVAL_SAMPLER_HH_
#define SPECFETCH_OBS_INTERVAL_SAMPLER_HH_

#include <vector>

#include "core/results.hh"
#include "obs/epoch.hh"

namespace specfetch {

/** Accumulates the epoch series of one run. */
class IntervalSampler
{
  public:
    /** @param interval Epoch length in retired instructions (> 0). */
    explicit IntervalSampler(uint64_t interval);

    uint64_t interval() const { return epochInterval; }

    /**
     * (Re)start the series: @p stats becomes the baseline the first
     * epoch is differenced against. The engine calls this after its
     * warmup stats reset so epochs cover only the measured region.
     */
    void begin(const SimResults &stats);

    /** Record the epoch ending at the current boundary; @p stats holds
     *  cumulative values. */
    void onBoundary(const SimResults &stats);

    /**
     * Close the series at end of run: appends a final epoch marked
     * partial when instructions were retired past the last boundary.
     */
    void finish(const SimResults &stats);

    const std::vector<EpochRecord> &epochs() const { return series; }

    /** Move the series out (the engine is about to be destroyed). */
    std::vector<EpochRecord> takeEpochs() { return std::move(series); }

  private:
    uint64_t epochInterval = 0;
    std::vector<EpochRecord> series;
    /** Cumulative values at the previous boundary. */
    SimResults prev;
};

} // namespace specfetch

#endif // SPECFETCH_OBS_INTERVAL_SAMPLER_HH_
