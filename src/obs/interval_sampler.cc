#include "obs/interval_sampler.hh"

#include "util/logging.hh"

namespace specfetch {

IntervalSampler::IntervalSampler(uint64_t interval)
    : epochInterval(interval)
{
    panic_if(interval == 0, "interval sampler needs a positive interval");
}

void
IntervalSampler::begin(const SimResults &stats)
{
    series.clear();
    prev = stats;
}

void
IntervalSampler::onBoundary(const SimResults &stats)
{
    EpochRecord epoch;
    static_cast<RunCounters &>(epoch) = stats - prev;
    epoch.epoch = series.size();
    epoch.firstInstruction = prev.instructions;
    epoch.lastInstruction = stats.instructions;
    epoch.slots = static_cast<uint64_t>(stats.finalSlot - prev.finalSlot);
    for (PenaltyKind kind : allPenaltyKinds()) {
        epoch.penalty.charge(
            kind, stats.penalty.slots(kind) - prev.penalty.slots(kind));
    }
    series.push_back(epoch);
    prev = stats;
}

void
IntervalSampler::finish(const SimResults &stats)
{
    // Nothing retired since the last boundary: the series is complete.
    if (stats.instructions == prev.instructions)
        return;
    bool partial =
        stats.instructions - prev.instructions < epochInterval;
    onBoundary(stats);
    series.back().partial = partial;
}

} // namespace specfetch
