/**
 * @file
 * A fully-built workload: profile + laid-out CFG + program image.
 */

#ifndef SPECFETCH_WORKLOAD_WORKLOAD_HH_
#define SPECFETCH_WORKLOAD_WORKLOAD_HH_

#include <functional>
#include <memory>
#include <string>

#include "isa/program_image.hh"
#include "workload/cfg.hh"
#include "workload/profile.hh"

namespace specfetch {

/**
 * Everything a simulation run needs from the workload side. The image
 * is consistent with the CFG's assigned addresses.
 */
struct Workload
{
    WorkloadProfile profile;
    Cfg cfg;
    ProgramImage image;

    /** Code footprint in bytes. */
    uint64_t footprintBytes() const { return image.size() * kInstBytes; }
};

/** Generate, lay out, and validate a workload from a profile. */
Workload buildWorkload(const WorkloadProfile &profile);

/**
 * Process-wide memoized build of the named registered benchmark.
 * Workloads are immutable once built, so one shared instance serves
 * every run — single-run harnesses (runBenchmark) and sweeps alike —
 * without rebuilding the CFG. Thread-safe.
 */
std::shared_ptr<const Workload> sharedWorkload(const std::string &benchmark);

/**
 * The same memo for a workload no profile describes (a rewritten
 * layout, say): @p name's first call builds it with @p build and makes
 * @p name its profile name; later calls of either overload return that
 * build. Sweeps then treat @p name like a benchmark. A registered
 * benchmark's name panics.
 */
std::shared_ptr<const Workload>
sharedWorkload(const std::string &name,
               const std::function<Workload()> &build);

} // namespace specfetch

#endif // SPECFETCH_WORKLOAD_WORKLOAD_HH_
