/**
 * @file
 * The paper's published numbers (Lee, Baer, Calder, Grunwald, ISCA
 * 1995), transcribed from Tables 2-7 so bench/paper can print
 * paper-vs-measured side by side. Order matches
 * workload::benchmarkNames(): doduc, fpppp, su2cor, ditroff, gcc, li,
 * tex, cfront, db++, groff, idl, lic, porky.
 */

#ifndef SPECFETCH_BENCH_PAPER_DATA_HH_
#define SPECFETCH_BENCH_PAPER_DATA_HH_

#include <cstddef>

namespace specfetch {
namespace paper {

constexpr size_t kNumBenchmarks = 13;

/** Table 3: instruction cache and branch prediction characteristics. */
struct Table3Row
{
    double miss8K, miss32K;
    double phtIspiB1, phtIspiB4;
    double misfetchIspiB1, misfetchIspiB4;
    double btbMispIspiB1, btbMispIspiB4;
};

constexpr Table3Row kTable3[kNumBenchmarks] = {
    // 8K, 32K, PHT B1, PHT B4, MF B1, MF B4, BTB B1, BTB B4
    {2.94, 0.48, 0.22, 0.37, 0.04, 0.04, 0.00, 0.00},    // doduc
    {7.27, 1.08, 0.08, 0.12, 0.01, 0.01, 0.00, 0.00},    // fpppp
    {1.33, 0.00, 0.08, 0.10, 0.00, 0.00, 0.00, 0.00},    // su2cor
    {3.18, 0.58, 0.44, 0.64, 0.22, 0.22, 0.00, 0.00},    // ditroff
    {4.48, 1.71, 0.53, 0.63, 0.28, 0.28, 0.05, 0.05},    // gcc
    {3.33, 0.06, 0.35, 0.54, 0.24, 0.24, 0.04, 0.04},    // li
    {2.85, 1.00, 0.27, 0.36, 0.11, 0.11, 0.03, 0.03},    // tex
    {7.24, 2.63, 0.50, 0.56, 0.34, 0.34, 0.05, 0.05},    // cfront
    {1.57, 0.42, 0.16, 0.41, 0.13, 0.13, 0.01, 0.01},    // db++
    {5.33, 1.68, 0.42, 0.57, 0.39, 0.38, 0.06, 0.06},    // groff
    {2.17, 0.67, 0.30, 0.49, 0.10, 0.11, 0.04, 0.05},    // idl
    {3.93, 1.68, 0.45, 0.56, 0.27, 0.27, 0.00, 0.00},    // lic
    {2.51, 0.66, 0.42, 0.48, 0.20, 0.20, 0.04, 0.04},    // porky
};

/** Table 4: miss-ratio categorization (percent of instructions). */
struct Table4Row
{
    double bothMiss, specPollute, specPrefetch, wrongPath, trafficRatio;
};

constexpr Table4Row kTable4[kNumBenchmarks] = {
    {2.58, 0.10, 0.36, 0.58, 1.11},    // doduc
    {7.18, 0.03, 0.08, 0.15, 1.01},    // fpppp
    {1.24, 0.01, 0.09, 0.10, 1.01},    // su2cor
    {2.27, 0.38, 0.92, 2.01, 1.46},    // ditroff
    {3.09, 0.48, 1.40, 3.25, 1.52},    // gcc
    {2.43, 0.42, 0.90, 2.05, 1.47},    // li
    {2.36, 0.25, 0.49, 1.24, 1.35},    // tex
    {5.22, 0.63, 2.02, 4.67, 1.45},    // cfront
    {1.15, 0.23, 0.42, 1.02, 1.52},    // db++
    {3.72, 0.70, 1.61, 3.95, 1.57},    // groff
    {1.67, 0.14, 0.49, 1.03, 1.31},    // idl
    {2.56, 0.36, 1.37, 2.62, 1.41},    // lic
    {1.81, 0.35, 0.70, 1.67, 1.53},    // porky
};

/** Table 5: total ISPI per policy at depths 1, 2, 4 (8K, 5 cycles). */
struct Table5Row
{
    double depth1[5];    // Oracle, Opt, Res, Pess, Dec
    double depth2[5];
    double depth4[5];
};

constexpr Table5Row kTable5[kNumBenchmarks] = {
    {{1.19, 1.20, 1.17, 1.46, 1.43},
     {1.10, 1.12, 1.08, 1.37, 1.35},
     {1.00, 1.02, 0.97, 1.27, 1.25}},    // doduc
    {{1.64, 1.64, 1.64, 2.24, 2.22},
     {1.59, 1.60, 1.59, 2.19, 2.18},
     {1.58, 1.59, 1.58, 2.18, 2.17}},    // fpppp
    {{0.46, 0.45, 0.45, 0.58, 0.56},
     {0.40, 0.39, 0.38, 0.52, 0.49},
     {0.37, 0.36, 0.36, 0.50, 0.47}},    // su2cor
    {{2.02, 2.09, 2.01, 2.35, 2.29},
     {1.68, 1.80, 1.67, 2.01, 1.96},
     {1.52, 1.68, 1.52, 1.84, 1.84}},    // ditroff
    {{2.33, 2.46, 2.34, 2.73, 2.71},
     {1.99, 2.19, 2.01, 2.40, 2.39},
     {1.87, 2.11, 1.88, 2.28, 2.30}},    // gcc
    {{2.04, 2.10, 2.01, 2.35, 2.31},
     {1.65, 1.72, 1.62, 1.98, 1.91},
     {1.54, 1.73, 1.54, 1.88, 1.86}},    // li
    {{1.28, 1.34, 1.28, 1.55, 1.52},
     {1.11, 1.19, 1.12, 1.38, 1.36},
     {1.07, 1.18, 1.07, 1.34, 1.33}},    // tex
    {{2.68, 2.88, 2.69, 3.32, 3.30},
     {2.45, 2.73, 2.46, 3.09, 3.10},
     {2.40, 2.73, 2.41, 3.06, 3.09}},    // cfront
    {{1.43, 1.50, 1.46, 1.58, 1.56},
     {1.00, 1.09, 1.03, 1.15, 1.15},
     {0.87, 0.98, 0.90, 1.02, 1.09}},    // db++
    {{2.53, 2.75, 2.59, 3.02, 2.99},
     {2.18, 2.47, 2.24, 2.67, 2.66},
     {2.09, 2.43, 2.15, 2.58, 2.60}},    // groff
    {{1.74, 1.79, 1.74, 1.94, 1.93},
     {1.30, 1.35, 1.29, 1.51, 1.49},
     {1.09, 1.15, 1.07, 1.30, 1.28}},    // idl
    {{2.13, 2.22, 2.10, 2.48, 2.46},
     {1.77, 1.89, 1.72, 2.13, 2.11},
     {1.63, 1.78, 1.57, 2.00, 2.01}},    // lic
    {{2.00, 2.11, 2.02, 2.24, 2.23},
     {1.49, 1.61, 1.50, 1.74, 1.72},
     {1.25, 1.40, 1.26, 1.50, 1.51}},    // porky
};

/** Table 5's Average rows, depths 1, 2, 4. */
constexpr double kTable5Average[3][5] = {
    {1.80, 1.89, 1.81, 2.14, 2.12},
    {1.52, 1.63, 1.52, 1.86, 1.84},
    {1.41, 1.55, 1.41, 1.75, 1.75},
};

/** Table 6: total ISPI per policy, 32K cache, depth 4, 5 cycles. */
constexpr double kTable6[kNumBenchmarks][5] = {
    {0.52, 0.53, 0.51, 0.56, 0.57},    // doduc
    {0.35, 0.35, 0.35, 0.44, 0.44},    // fpppp
    {0.12, 0.12, 0.12, 0.12, 0.12},    // su2cor
    {1.03, 1.08, 1.01, 1.10, 1.10},    // ditroff
    {1.33, 1.43, 1.32, 1.49, 1.51},    // gcc
    {0.89, 1.04, 0.92, 0.90, 0.96},    // li
    {0.70, 0.74, 0.69, 0.80, 0.80},    // tex
    {1.50, 1.70, 1.50, 1.74, 1.79},    // cfront
    {0.65, 0.69, 0.65, 0.69, 0.69},    // db++
    {1.39, 1.56, 1.43, 1.55, 1.58},    // groff
    {0.79, 0.82, 0.77, 0.85, 0.85},    // idl
    {1.19, 1.29, 1.17, 1.36, 1.37},    // lic
    {0.89, 0.93, 0.88, 0.95, 0.97},    // porky
};

constexpr double kTable6Average[5] = {0.87, 0.94, 0.87, 0.97, 0.98};

/** Table 7: memory-traffic ratio with next-line prefetching, relative
 *  to Oracle without prefetching (Oracle, Resume, Pessimistic). */
constexpr double kTable7[kNumBenchmarks][3] = {
    {1.22, 1.28, 1.23},    // doduc
    {1.02, 1.03, 1.03},    // fpppp
    {1.26, 1.27, 1.26},    // su2cor
    {1.41, 1.68, 1.47},    // ditroff
    {1.39, 1.62, 1.45},    // gcc
    {1.29, 1.62, 1.29},    // li
    {1.34, 1.54, 1.38},    // tex
    {1.35, 1.56, 1.39},    // cfront
    {1.43, 1.74, 1.47},    // db++
    {1.46, 1.71, 1.49},    // groff
    {1.64, 1.81, 1.67},    // idl
    {1.28, 1.52, 1.32},    // lic
    {1.51, 1.83, 1.54},    // porky
};

} // namespace paper
} // namespace specfetch

#endif // SPECFETCH_BENCH_PAPER_DATA_HH_
