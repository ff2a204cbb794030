/**
 * @file
 * Shared scaffolding for the table-printing harnesses: banners,
 * paper-vs-measured cell formatting, averages, and table output
 * (stdout plus optional CSV files).
 */

#ifndef SPECFETCH_BENCH_BENCH_SUPPORT_HH_
#define SPECFETCH_BENCH_BENCH_SUPPORT_HH_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "util/csv.hh"

#include "bench_main.hh"
#include "core/results.hh"
#include "core/sweep.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace specfetch {
namespace bench {

/** "measured/paper" cell, e.g. "1.83/2.02". */
inline std::string
vsPaper(double measured, double paper_value, int decimals = 2)
{
    return formatFixed(measured, decimals) + "/" +
           formatFixed(paper_value, decimals);
}

namespace detail {
/** CSV file prefix set by banner(), consumed by emitTable(). */
inline std::string &
experimentSlug()
{
    static std::string slug = "experiment";
    return slug;
}
inline unsigned &
tableCounter()
{
    static unsigned counter = 0;
    return counter;
}
} // namespace detail

/**
 * Print a harness banner with the experiment identity. Tables emitted
 * after it go to <slug>_<n>.csv.
 */
inline void
banner(const std::string &experiment, const std::string &what,
       const SimConfig &config, const std::string &slug)
{
    detail::experimentSlug() = slug;
    detail::tableCounter() = 0;
    std::printf("=== %s: %s ===\n", experiment.c_str(), what.c_str());
    std::printf("machine: %s; budget %s instructions/run\n",
                config.describe().c_str(),
                formatWithCommas(config.instructionBudget).c_str());
    std::printf("cells are measured/paper unless noted\n\n");
}

/**
 * Print a table to stdout and, when SPECFETCH_CSV_DIR is set, also
 * write it as <dir>/<experiment>_<n>.csv for plotting.
 */
inline void
emitTable(const TextTable &table)
{
    std::fputs(table.render().c_str(), stdout);
    const char *dir = std::getenv("SPECFETCH_CSV_DIR");
    if (!dir || !*dir)
        return;
    std::string path = std::string(dir) + "/" +
                       detail::experimentSlug() + "_" +
                       std::to_string(detail::tableCounter()++) + ".csv";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    out << table.renderCsv();
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

} // namespace bench
} // namespace specfetch

#endif // SPECFETCH_BENCH_BENCH_SUPPORT_HH_
