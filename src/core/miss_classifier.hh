/**
 * @file
 * Miss classification (paper §5.1.1, Table 4).
 *
 * The paper partitions misses by comparing Oracle and Optimistic runs
 * of the same trace:
 *
 *  - Both Miss      — misses under both policies;
 *  - Spec Pollute   — Optimistic-only correct-path misses (wrong-path
 *                     fills displaced useful lines);
 *  - Spec Prefetch  — Oracle-only misses (wrong-path fills usefully
 *                     prefetched the line for Optimistic);
 *  - Wrong Path     — Optimistic misses on the wrong path (their main
 *                     cost is memory bandwidth);
 *  - Traffic Ratio  — Optimistic misses / Oracle misses.
 *
 * We obtain all five in a single Optimistic-timed run by keeping a
 * lockstep *oracle shadow cache* that is filled only by correct-path
 * misses: for every correct-path access both images are probed and
 * the (hit,hit) pair indexes the category.
 */

#ifndef SPECFETCH_CORE_MISS_CLASSIFIER_HH_
#define SPECFETCH_CORE_MISS_CLASSIFIER_HH_

#include <string>

#include "core/config.hh"
#include "workload/workload.hh"

namespace specfetch {

struct SimResults;
class TraceSnapshot;

/** Table 4 results for one workload. */
struct Classification
{
    std::string workload;
    uint64_t instructions = 0;

    uint64_t bothMiss = 0;
    uint64_t specPollute = 0;
    uint64_t specPrefetch = 0;
    uint64_t wrongPath = 0;    ///< serviced wrong-path fills

    /** Oracle misses = Both Miss + Spec Prefetch. */
    uint64_t oracleMisses() const { return bothMiss + specPrefetch; }
    /** Optimistic misses = Both Miss + Spec Pollute + Wrong Path. */
    uint64_t
    optimisticMisses() const
    {
        return bothMiss + specPollute + wrongPath;
    }

    /** Percent-of-instructions views (the paper's units). @{ */
    double bothMissPercent() const;
    double specPollutePercent() const;
    double specPrefetchPercent() const;
    double wrongPathPercent() const;
    /** @} */

    /** Optimistic/Oracle miss (= memory traffic) ratio. */
    double trafficRatio() const;

    bool operator==(const Classification &) const = default;
};

/**
 * The configuration the classification of @p config simulates: the
 * one place that states which members the taxonomy ignores. The
 * comparison is Optimistic vs Oracle without prefetching, as in the
 * paper, so the policy becomes Optimistic and every prefetcher is
 * off. The shadow observer counts from the first access, so warmup
 * is 0 (a warmup would desynchronize its counts from the stats
 * denominator). The adaptive selector is off, or it would switch the
 * run away from Optimistic, and the sampler and heatmap are off
 * because nothing reads them. checkLevel and every other member are
 * kept.
 */
SimConfig classificationConfig(const SimConfig &config);

/**
 * The identity of a classification row: @p benchmark and the manifest
 * of classificationConfig(@p config), as a stored run's identity is
 * its manifest. Runs with equal keys share one classification.
 */
std::string classificationKey(const std::string &benchmark,
                              const SimConfig &config);

/**
 * Classify misses for @p workload under classificationConfig(@p
 * config), executing the correct path live.
 *
 * When config.checkLevel != Off, the taxonomy is audited against the
 * timed run's counters (Table 4 conservation) before returning; a
 * violation emits the audit report and aborts. @p timed_results, when
 * non-null, receives the underlying Optimistic run's results so
 * callers (tests) can re-verify the conservation identities.
 */
Classification classifyMisses(const Workload &workload,
                              const SimConfig &config,
                              SimResults *timed_results = nullptr);

/**
 * The same classification, replaying @p snapshot — the recorded
 * (workload, config.runSeed) stream, at least
 * config.instructionBudget long — instead of executing live.
 * Bit-identical to the live overload.
 */
Classification classifyMisses(const Workload &workload,
                              const SimConfig &config,
                              const TraceSnapshot &snapshot);

} // namespace specfetch

#endif // SPECFETCH_CORE_MISS_CLASSIFIER_HH_
