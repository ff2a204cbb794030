/**
 * @file
 * The paper's experiment table. A row is one table or figure of the
 * paper, one of the two config-grid ablations, or the §6 further-study
 * ablation: the cells it simulates (a cell is one profile × SimConfig
 * run), the renderer that prints its tables, and its shape claims. A
 * claim is a named check over cells, its slack written in the check;
 * DESIGN.md §5 and EXPERIMENTS.md state each one. bench/paper runs the
 * distinct cells of the selected rows as one sweep.
 */

#ifndef SPECFETCH_BENCH_EXPERIMENTS_HH_
#define SPECFETCH_BENCH_EXPERIMENTS_HH_

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "bench_support.hh"
#include "paper_data.hh"
#include "serve/request.hh"
#include "workload/reorder.hh"
#include "workload/workload.hh"

namespace specfetch {
namespace bench {

/** A sweep's results and classifications, by their cell's run key. */
using Cells =
    std::map<std::string, std::pair<SimResults, Classification>>;

/** @p specs without the repeats of a run key, in first-seen order. */
inline std::vector<RunSpec>
distinct(const std::vector<RunSpec> &specs)
{
    std::set<std::string> keys;
    std::vector<RunSpec> out;
    for (const RunSpec &spec : specs)
        if (keys.insert(sweepRunKey(spec)).second)
            out.push_back(spec);
    return out;
}

/** The cells of a sweep over @p specs. */
inline Cells
cellsOf(const std::vector<RunSpec> &specs,
        const std::vector<SimResults> &results,
        const std::vector<Classification> &classifications)
{
    Cells cells;
    for (size_t i = 0; i < specs.size(); ++i) {
        cells.emplace(sweepRunKey(specs[i]),
                      std::make_pair(results[i], classifications[i]));
    }
    return cells;
}

/** @p config under @p policy, with next-line prefetch if @p prefetch. */
inline SimConfig
withPolicy(SimConfig config, FetchPolicy policy, bool prefetch = false)
{
    config.policy = policy;
    config.nextLinePrefetch = prefetch;
    return config;
}

/** A change to a machine, as the ablations state their columns. */
using Edit = std::function<void(SimConfig &)>;

/** @p config after @p edit. */
inline SimConfig
with(SimConfig config, const Edit &edit)
{
    edit(config);
    return config;
}

/**
 * What a renderer or a claim reads: the cells, from one row's base
 * machine and one profile (empty for suite-wide reads).
 */
struct View
{
    const Cells &cells;
    SimConfig base;
    std::string profile;

    const std::pair<SimResults, Classification> &
    cell(const SimConfig &config) const
    {
        auto it = cells.find(sweepRunKey(RunSpec{profile, config}));
        if (it == cells.end()) {
            panic("no cell %s / %s: its row does not declare it",
                  profile.c_str(), config.describe().c_str());
        }
        return it->second;
    }

    const SimResults &at(const SimConfig &config) const
    {
        return cell(config).first;
    }

    const SimResults &at(FetchPolicy policy, bool prefetch = false) const
    {
        return at(withPolicy(base, policy, prefetch));
    }

    const SimResults &at(const Edit &edit) const
    {
        return at(with(base, edit));
    }

    /** The profile's Table-4 classification (paper baseline). */
    const Classification &classified() const
    {
        return cell(withPolicy(base, FetchPolicy::Oracle)).second;
    }

    View of(const std::string &other) const { return {cells, base, other}; }

    /** Mean of @p metric over @p profiles, in profile order. */
    double
    mean(const std::function<double(const View &)> &metric,
         const std::vector<std::string> &profiles = benchmarkNames()) const
    {
        std::vector<double> values;
        for (const std::string &name : profiles)
            values.push_back(metric(of(name)));
        return bench::mean(values);
    }

    /** Mean total ISPI of @p profiles under @p policy. */
    double
    mean(FetchPolicy policy, bool prefetch = false,
         const std::vector<std::string> &profiles = benchmarkNames()) const
    {
        return mean([&](const View &v) { return v.ispi(policy, prefetch); },
                    profiles);
    }

    double ispi(FetchPolicy policy, bool prefetch = false) const
    {
        return at(policy, prefetch).ispi();
    }
};

/** What a claim found: whether it holds, and the numbers behind it. */
struct Verdict
{
    bool holds = false;
    std::string detail;
};

/** A named shape check over a row's cells. */
struct Claim
{
    /** Printed "<row>.<name>", plus "[profile]" per failing profile. */
    std::string name;
    /** A per-profile claim's profiles; empty for a suite-wide one. */
    std::vector<std::string> profiles;
    std::function<Verdict(const View &)> check;
    /**
     * The EXPERIMENTS.md "Known deviations" item of a claim the model
     * breaks, or empty. Such a claim prints "deviates" while it fails,
     * and fails the run once it holds, so the mark cannot go stale.
     */
    std::string deviation = {};
};

/** One table or figure: its cells, its renderer and its claims. */
struct Experiment
{
    /** --experiment name, CSV file prefix and claim-name prefix. */
    std::string name;
    /** The banner reads "=== <title>: <what> ===". */
    std::string title, what;
    /** The machine the banner describes; the driver sets the budget. */
    SimConfig base;
    std::function<std::vector<RunSpec>(const SimConfig &base)> cells;
    std::function<void(const View &)> render;
    std::vector<Claim> claims = {};
};

/** A comparison's verdict; its detail shows the relation that holds. */
inline Verdict
compared(double a, double b, bool holds, const char *relation,
         const char *otherwise)
{
    return {holds, formatFixed(a, 3) + (holds ? relation : otherwise) +
                       formatFixed(b, 3)};
}

inline Verdict
less(double a, double b)
{
    return compared(a, b, a < b, " < ", " >= ");
}

inline Verdict
atMost(double a, double b)
{
    return compared(a, b, a <= b, " <= ", " > ");
}

/** |a - b| < slack * b: a "≈". */
inline Verdict
near(double a, double b, double slack)
{
    Verdict v = compared(a, b, std::abs(a - b) < slack * b, " ~ ", " !~ ");
    v.detail += " within " + formatFixed(100.0 * slack, 0) + "%";
    return v;
}

/** The slack of a "≈" with no stated bound, as Figures 1-2 use. */
constexpr double kNear = 0.15;

inline Verdict
all(const std::vector<Verdict> &verdicts)
{
    Verdict out{true, ""};
    for (const Verdict &v : verdicts) {
        out.holds = out.holds && v.holds;
        out.detail += (out.detail.empty() ? "" : ", ") + v.detail;
    }
    return out;
}

/** all() of @p check over @p items. */
template <typename Items, typename Check>
Verdict
each(const Items &items, Check check)
{
    std::vector<Verdict> verdicts;
    for (const auto &item : items)
        verdicts.push_back(check(item));
    return all(verdicts);
}

/** Every profile under every config. */
inline std::vector<RunSpec>
grid(const std::vector<std::string> &profiles,
     const std::vector<SimConfig> &configs)
{
    std::vector<RunSpec> specs;
    for (const std::string &profile : profiles)
        for (const SimConfig &config : configs)
            specs.push_back(RunSpec{profile, config});
    return specs;
}

inline std::vector<RunSpec>
operator+(std::vector<RunSpec> a, const std::vector<RunSpec> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** The Fortran-like profiles (@p fortran) or the branchy C/C++ ones. */
inline std::vector<std::string>
profilesWhere(bool fortran)
{
    std::vector<std::string> names;
    for (const std::string &name : benchmarkNames())
        if ((getProfile(name).family == LanguageFamily::Fortran) == fortran)
            names.push_back(name);
    return names;
}

/** The paper's five representative programs (Figures 1-4). */
inline const std::vector<std::string> kRepresentative{"doduc", "gcc", "li",
                                                      "groff", "lic"};

/** The branchy profiles the per-profile policy orderings range over. */
inline const std::vector<std::string> kSix{"gcc", "li",  "groff",
                                           "idl", "lic", "ditroff"};

/** The policies Figures 3-4 and Table 7 compare. */
inline const std::vector<FetchPolicy> kThree{
    FetchPolicy::Oracle, FetchPolicy::Resume, FetchPolicy::Pessimistic};

inline SimConfig
depth(SimConfig config, unsigned unresolved)
{
    config.maxUnresolved = unresolved;
    return config;
}

inline SimConfig
cacheKB(SimConfig config, uint64_t kb)
{
    config.icache.sizeBytes = kb * 1024;
    return config;
}

inline SimConfig
penalty(SimConfig config, unsigned cycles)
{
    config.missPenaltyCycles = cycles;
    return config;
}

/** A figure's bars, (label, config): the five policies, or with
 *  @p prefetch three policies each without and with prefetching. */
inline std::vector<std::pair<std::string, SimConfig>>
variants(const SimConfig &base, bool prefetch)
{
    std::vector<std::pair<std::string, SimConfig>> out;
    for (FetchPolicy policy : prefetch ? kThree : allPolicies()) {
        out.emplace_back(toString(policy), withPolicy(base, policy));
        if (prefetch) {
            out.emplace_back(toString(policy) + "+Pref",
                             withPolicy(base, policy, true));
        }
    }
    return out;
}

/** Every profile under every bar of a figure. */
inline std::vector<RunSpec>
figureCells(const SimConfig &base, bool prefetch,
            const std::vector<std::string> &profiles = benchmarkNames())
{
    std::vector<SimConfig> configs;
    for (const auto &variant : variants(base, prefetch))
        configs.push_back(variant.second);
    return grid(profiles, configs);
}

/** The figure's stacked bars as a table: per representative program
 *  and bar, each ISPI component and the total. */
inline void
printBreakdown(const View &v, bool prefetch)
{
    TextTable table;
    std::vector<std::string> columns{"program", "variant"};
    for (PenaltyKind kind : allPenaltyKinds())
        columns.push_back(toString(kind));
    columns.push_back("total ISPI");
    table.setColumns(columns);
    table.setAlign(1, TextTable::Align::Left);
    for (const std::string &benchmark : kRepresentative) {
        for (const auto &[label, config] : variants(v.base, prefetch)) {
            const SimResults &r = v.of(benchmark).at(config);
            std::vector<std::string> row{benchmark, label};
            for (PenaltyKind kind : allPenaltyKinds())
                row.push_back(formatFixed(r.ispiOf(kind), 3));
            row.push_back(formatFixed(r.ispi(), 3));
            table.addRow(row);
        }
        if (&benchmark != &kRepresentative.back())
            table.addSeparator();
    }
    emitTable(table);
}

/** One column of a measured/paper table; a NaN paper average leaves
 *  the column's Average cell blank. */
struct Column
{
    std::string header;
    std::function<double(const View &)> measured;
    std::function<double(size_t profile)> paper;
    double paperAverage;
};

/** Per profile, each column's measured/paper cell, then the averages. */
inline void
printPaperTable(const View &v, const std::vector<Column> &columns)
{
    TextTable table;
    std::vector<std::string> headers{"Program"};
    for (const Column &column : columns)
        headers.push_back(column.header);
    table.setColumns(headers);
    std::vector<std::vector<double>> measured(columns.size());
    const auto &names = benchmarkNames();
    for (size_t b = 0; b < names.size(); ++b) {
        std::vector<std::string> row{names[b]};
        for (size_t c = 0; c < columns.size(); ++c) {
            measured[c].push_back(columns[c].measured(v.of(names[b])));
            row.push_back(vsPaper(measured[c].back(), columns[c].paper(b)));
        }
        table.addRow(row);
    }
    table.addSeparator();
    std::vector<std::string> averages{"Average"};
    for (size_t c = 0; c < columns.size(); ++c) {
        averages.push_back(std::isnan(columns[c].paperAverage)
                               ? ""
                               : vsPaper(mean(measured[c]),
                                         columns[c].paperAverage));
    }
    table.addRow(averages);
    emitTable(table);
}

/** Tables 5-6: each policy's total ISPI under @p config. */
inline std::vector<Column>
policyColumns(const SimConfig &config,
              const std::function<double(size_t, size_t)> &paper,
              const double *paperAverage)
{
    std::vector<Column> columns;
    for (size_t p = 0; p < 5; ++p) {
        FetchPolicy policy = allPolicies()[p];
        columns.push_back(
            {policy == FetchPolicy::Oracle ? "Oracle" : shortName(policy),
             [=](const View &v) {
                 return v.at(withPolicy(config, policy)).ispi();
             },
             [=](size_t b) { return paper(b, p); }, paperAverage[p]});
    }
    return columns;
}

/** Memory transactions (Table 7 traffic). */
inline double
traffic(const SimResults &r)
{
    return static_cast<double>(r.memoryTransactions());
}

/** The profile's traffic under @p policy with prefetching, over
 *  Oracle's without (Table 7). */
inline double
trafficRatio(const View &v, FetchPolicy policy)
{
    double denom = traffic(v.at(FetchPolicy::Oracle));
    return denom == 0.0 ? 0.0 : traffic(v.at(policy, true)) / denom;
}

inline void
renderTable2(const View &v)
{
    TextTable table;
    table.setColumns({"Program", "family", "static KB", "blocks",
                      "functions", "%Branches", "%cond", "paper Minst"});
    std::vector<double> branch_pct;
    for (const std::string &name : benchmarkNames()) {
        WorkloadProfile profile = getProfile(name);
        std::shared_ptr<const Workload> w = sharedWorkload(name);
        const SimResults &r = v.of(name).at(FetchPolicy::Oracle);
        branch_pct.push_back(100.0 *
                             ratioOf(r.controlInsts, r.instructions));
        const char *family =
            profile.family == LanguageFamily::Fortran ? "Fortran"
            : profile.family == LanguageFamily::C     ? "C"
                                                      : "C++";
        table.addRow(
            {name, family,
             formatFixed(static_cast<double>(w->footprintBytes()) / 1024.0,
                         1),
             std::to_string(w->cfg.blocks.size()),
             std::to_string(w->cfg.functions.size()),
             vsPaper(branch_pct.back(), profile.paperBranchPercent, 1),
             formatFixed(100.0 * ratioOf(r.condBranches, r.instructions), 1),
             formatFixed(profile.paperInstMillions, 0)});
    }
    table.addSeparator();
    table.addRow({"Average", "", "", "", "",
                  formatFixed(mean(branch_pct), 1), "", ""});
    emitTable(table);
}

/** Table 3's columns, each measured at a cache size and speculation
 *  depth. */
inline std::vector<Column>
table3Columns()
{
    using Row = paper::Table3Row;
    auto column = [](std::string header, double (SimResults::*metric)() const,
                     uint64_t kb, unsigned unresolved, double Row::*paper,
                     double average) {
        return Column{header,
                      [=](const View &v) {
                          return (v.at(depth(cacheKB(v.base, kb), unresolved))
                                      .*metric)();
                      },
                      [=](size_t b) { return paper::kTable3[b].*paper; },
                      average};
    };
    using R = SimResults;
    const double blank = std::nan("");
    return {
        column("8K miss%", &R::missRatePercent, 8, 4, &Row::miss8K, 3.70),
        column("32K miss%", &R::missRatePercent, 32, 4, &Row::miss32K, 0.97),
        column("PHT B1", &R::phtMispredictIspi, 8, 1, &Row::phtIspiB1, 0.32),
        column("PHT B4", &R::phtMispredictIspi, 8, 4, &Row::phtIspiB4, 0.45),
        column("MF B1", &R::btbMisfetchIspi, 8, 1, &Row::misfetchIspiB1,
               blank),
        column("MF B4", &R::btbMisfetchIspi, 8, 4, &Row::misfetchIspiB4,
               0.18),
        column("BTB B1", &R::btbMispredictIspi, 8, 1, &Row::btbMispIspiB1,
               blank),
        column("BTB B4", &R::btbMispredictIspi, 8, 4, &Row::btbMispIspiB4,
               blank),
    };
}

/** A classification metric of the view's profile. */
inline std::function<double(const View &)>
classified(double (Classification::*metric)() const)
{
    return [metric](const View &v) { return (v.classified().*metric)(); };
}

/** Table 4's columns, from each profile's classification. */
inline std::vector<Column>
table4Columns()
{
    using C = Classification;
    using Row = paper::Table4Row;
    auto published = [](double Row::*value) {
        return [value](size_t b) { return paper::kTable4[b].*value; };
    };
    return {
        {"BM", classified(&C::bothMissPercent), published(&Row::bothMiss),
         2.87},
        {"SPo", classified(&C::specPollutePercent),
         published(&Row::specPollute), 0.32},
        {"SPr", classified(&C::specPrefetchPercent),
         published(&Row::specPrefetch), 0.83},
        {"WP", classified(&C::wrongPathPercent), published(&Row::wrongPath),
         1.87},
        {"TR", classified(&C::trafficRatio), published(&Row::trafficRatio),
         1.36},
    };
}

/**
 * One ablation table: per program, the total ISPI under each edit of
 * the base and, when @p other is set, another metric of each; with
 * @p otherFirst the other metric's columns come first.
 */
struct Ablation
{
    std::string caption;
    std::vector<std::string> columns;
    std::vector<Edit> edits;
    std::string (*other)(const SimResults &) = nullptr;
    bool otherFirst = false;
};

inline std::vector<RunSpec>
ablationCells(const SimConfig &base, const std::vector<std::string> &programs,
              const std::vector<Ablation> &ablations)
{
    std::vector<SimConfig> configs;
    for (const Ablation &ablation : ablations)
        for (const auto &edit : ablation.edits)
            configs.push_back(with(base, edit));
    return grid(programs, configs);
}

inline void
printAblations(const View &v, const std::vector<std::string> &programs,
               const std::vector<Ablation> &ablations)
{
    for (const Ablation &ablation : ablations) {
        std::printf("%s", ablation.caption.c_str());
        TextTable table;
        table.setColumns(ablation.columns);
        for (const std::string &name : programs) {
            std::vector<std::string> row{name}, others;
            for (const auto &edit : ablation.edits) {
                const SimResults &r = v.of(name).at(edit);
                std::string ispi = formatFixed(r.ispi(), 3);
                std::string other = ablation.other ? ablation.other(r) : "";
                row.push_back(ablation.otherFirst ? other : ispi);
                if (ablation.other)
                    others.push_back(ablation.otherFirst ? ispi : other);
            }
            row.insert(row.end(), others.begin(), others.end());
            table.addRow(row);
        }
        emitTable(table);
    }
}

inline std::string
missPercent(const SimResults &r)
{
    return formatFixed(r.missRatePercent(), 2);
}

inline const std::vector<std::string> kGeometryPrograms{"fpppp", "gcc",
                                                        "groff", "li"};
inline const std::vector<Ablation> kGeometry{
    {"--- associativity (8K, 32B lines, Resume) ---\n",
     {"Program", "1-way miss%", "2-way", "4-way", "1-way ISPI", "2-way",
      "4-way"},
     {[](SimConfig &c) { c.icache.ways = 1; },
      [](SimConfig &c) { c.icache.ways = 2; },
      [](SimConfig &c) { c.icache.ways = 4; }},
     missPercent, true},
    {"\n--- line size (8K direct-mapped, Resume, prefetch on) ---\n",
     {"Program", "16B ISPI", "32B", "64B", "16B traffic", "32B", "64B"},
     {[](SimConfig &c) { c.nextLinePrefetch = true; c.icache.lineBytes = 16; },
      [](SimConfig &c) { c.nextLinePrefetch = true; c.icache.lineBytes = 32; },
      [](SimConfig &c) { c.nextLinePrefetch = true; c.icache.lineBytes = 64; }},
     [](const SimResults &r) {
         return formatWithCommas(r.memoryTransactions());
     }},
};

inline const std::vector<std::string> kBranchPrograms{"gcc", "li", "cfront",
                                                      "idl"};
inline const std::vector<Ablation> kBranchArch{
    {"--- BTB entries (4-way, decoupled) ---\n",
     {"Program", "16", "64 (paper)", "256", "misfetch ISPI @16", "@64",
      "@256"},
     {[](SimConfig &c) { c.predictor.btbEntries = 16; },
      [](SimConfig &c) { c.predictor.btbEntries = 64; },
      [](SimConfig &c) { c.predictor.btbEntries = 256; }},
     [](const SimResults &r) { return formatFixed(r.btbMisfetchIspi(), 3); }},
    {"\n--- PHT entries (gshare) ---\n",
     {"Program", "128", "512 (paper)", "4096", "accuracy @128", "@512",
      "@4096"},
     {[](SimConfig &c) { c.predictor.phtEntries = 128; },
      [](SimConfig &c) { c.predictor.phtEntries = 512; },
      [](SimConfig &c) { c.predictor.phtEntries = 4096; }},
     [](const SimResults &r) {
         return formatFixed(100.0 * r.condAccuracy(), 1);
     }},
    {"\n--- PHT indexing (512 entries) ---\n",
     {"Program", "gshare (paper)", "global-only", "pc-only",
      "two-level local", "combining (McFarling)"},
     {[](SimConfig &c) { c.predictor.phtIndexing = PhtIndexing::Gshare; },
      [](SimConfig &c) { c.predictor.phtIndexing = PhtIndexing::GlobalOnly; },
      [](SimConfig &c) { c.predictor.phtIndexing = PhtIndexing::PcOnly; },
      [](SimConfig &c) { c.predictor.phtIndexing = PhtIndexing::Local; },
      [](SimConfig &c) { c.predictor.phtIndexing = PhtIndexing::Combining; }}},
    {"\n--- return-address stack (paper: none) ---\n",
     {"Program", "no RAS (paper)", "RAS 8", "RAS 16",
      "BTB-mispredict ISPI no-RAS", "RAS 8", "RAS 16"},
     {[](SimConfig &c) { c.predictor.rasDepth = 0; },
      [](SimConfig &c) { c.predictor.rasDepth = 8; },
      [](SimConfig &c) { c.predictor.rasDepth = 16; }},
     [](const SimResults &r) {
         return formatFixed(r.btbMispredictIspi(), 3);
     }},
};

/** The §6 further-study programs. */
inline const std::vector<std::string> kFutureWorkPrograms{
    "gcc", "li", "groff", "cfront", "fpppp"};

/**
 * The name of @p profile after profile-driven block reordering, built
 * once (workload memo): trained on another input (run seed 7) than the
 * runs evaluate, over 1M instructions at any budget.
 */
inline std::string
reordered(const std::string &profile)
{
    std::string name = profile + "+reordered";
    sharedWorkload(name, [&] {
        return reorderWorkload(*sharedWorkload(profile), /*profile_seed=*/7,
                               /*profile_budget=*/1'000'000);
    });
    return name;
}

/**
 * reordered() of every §6 program, built in one parallel pass (a
 * thread per program; the memo builds distinct names concurrently)
 * inside a `workload_build` span, so the trace accounts for them.
 */
inline std::vector<std::string>
reorderedFutureWork()
{
    TraceSpan span("workload_build", "bench");
    std::vector<std::string> names(kFutureWorkPrograms.size());
    std::vector<std::thread> builds;
    for (size_t i = 0; i < names.size(); ++i) {
        builds.emplace_back(
            [&names, i] { names[i] = reordered(kFutureWorkPrograms[i]); });
    }
    for (std::thread &build : builds)
        build.join();
    return names;
}

/** Overlapping fills: @p n memory channels, 20-cycle fills, next-line
 *  prefetch. */
inline Edit
channels(unsigned n)
{
    return [n](SimConfig &c) {
        c.missPenaltyCycles = 20;
        c.nextLinePrefetch = true;
        c.memoryChannels = n;
    };
}

inline Edit
victims(unsigned entries)
{
    return [entries](SimConfig &c) { c.victimEntries = entries; };
}

/** An L2 of @p kb behind the I-cache (5-cycle hits, 20-cycle misses). */
inline Edit
l2KB(uint64_t kb)
{
    return [kb](SimConfig &c) {
        c.l2Enabled = true;
        c.l2Cache.sizeBytes = kb * 1024;
    };
}

inline Edit
prefetcher(PrefetchKind kind)
{
    return [kind](SimConfig &c) { c.prefetchKind = kind; };
}

inline const std::vector<Ablation> kFutureWork{
    {"\n--- pipelined memory interface (overlapping fills, 20-cycle "
     "penalty, next-line prefetch) ---\n",
     {"Program", "1 channel", "2", "4", "bus ISPI @1", "@2", "@4"},
     {channels(1), channels(2), channels(4)},
     [](const SimResults &r) {
         return formatFixed(r.ispiOf(PenaltyKind::Bus), 3);
     }},
    {"\n--- victim cache (Jouppi 90; recovers direct-mapped conflict "
     "misses on-chip) ---\n",
     {"Program", "no victim", "4 entries", "8 entries", "miss% base", "@4",
      "@8"},
     {victims(0), victims(4), victims(8)},
     missPercent},
    {"\n--- explicit L2 (the continuum between Figures 1 and 2) ---\n",
     {"Program", "flat 5cyc", "L2 64K (5/20)", "L2 16K", "flat 20cyc"},
     {[](SimConfig &) {}, l2KB(64), l2KB(16),
      [](SimConfig &c) { c.missPenaltyCycles = 20; }}},
    {"\n--- prefetch mechanism (Smith & Hsu comparison) ---\n",
     {"Program", "none", "next-line (paper)", "target", "combined", "stream",
      "miss% none", "next-line", "target", "combined", "stream"},
     {prefetcher(PrefetchKind::None), prefetcher(PrefetchKind::NextLine),
      prefetcher(PrefetchKind::Target), prefetcher(PrefetchKind::Combined),
      prefetcher(PrefetchKind::Stream)},
     missPercent},
};

/** The view's profile's relative miss% drop from 8 victim entries. */
inline double
victimDrop(const View &v)
{
    double none = v.at(victims(0)).missRatePercent();
    return (none - v.at(victims(8)).missRatePercent()) / none;
}

/** The view's profile's ISPI under prefetch mechanism @p kind. */
inline double
prefetchIspi(const View &v, PrefetchKind kind)
{
    return v.at(prefetcher(kind)).ispi();
}

inline double
speculative(const View &v)
{
    return v.classified().specPollutePercent() +
           v.classified().specPrefetchPercent();
}

/** Suite-average bus ISPI of @p policy. */
inline double
meanBus(const View &v, FetchPolicy policy, bool prefetch)
{
    return v.mean([&](const View &q) {
        return q.at(policy, prefetch).ispiOf(PenaltyKind::Bus);
    });
}

/** Suite-average excess of @p policy's @p kind ISPI over Oracle's. */
inline double
excess(const View &v, FetchPolicy policy, PenaltyKind kind)
{
    auto part = [&](FetchPolicy p) {
        return v.mean([&](const View &q) { return q.at(p).ispiOf(kind); });
    };
    return part(policy) - part(FetchPolicy::Oracle);
}

/** @p v on the same machine at another speculation depth or cache. */
inline View
atDepth(const View &v, unsigned unresolved)
{
    return {v.cells, depth(v.base, unresolved), v.profile};
}

inline View
at8K(const View &v)
{
    return {v.cells, cacheKB(v.base, 8), v.profile};
}

/** Resume-vs-Pessimistic gap: suite-average Pessimistic ISPI over
 *  Resume's, in percent above 100. */
inline double
policyGap(const View &v)
{
    using enum FetchPolicy;
    return 100.0 * (v.mean(Pessimistic) - v.mean(Resume)) / v.mean(Resume);
}

/** Suite-average Table 7 ratio of @p policy. */
inline double
meanTraffic(const View &v, FetchPolicy policy)
{
    return v.mean([&](const View &q) { return trafficRatio(q, policy); });
}

/** The experiment table, in the paper's order. */
inline const std::vector<Experiment> &
experiments()
{
    using enum FetchPolicy;
    using C = Classification;
    static const SimConfig baseline;    // the paper's machine
    static const std::vector<std::string> cpp = profilesWhere(false),
                                          fortran = profilesWhere(true);
    static const std::vector<Experiment> rows{
        {"table2", "Table 2", "benchmark characteristics", baseline,
         [](const SimConfig &base) {
             return grid(benchmarkNames(), {withPolicy(base, Oracle)});
         },
         renderTable2},

        {"table3", "Table 3", "cache and branch-prediction characteristics",
         withPolicy(baseline, Oracle),
         [](const SimConfig &base) {
             return grid(benchmarkNames(),
                         {base, cacheKB(base, 32), depth(base, 1)});
         },
         [](const View &v) { printPaperTable(v, table3Columns()); },
         {{"pht_ispi_grows_with_depth", {}, [](const View &v) {
               // Stale speculative history (paper §4.2).
               auto pht = [](const View &p) {
                   return p.at(p.base).phtMispredictIspi();
               };
               return less(atDepth(v, 1).mean(pht), v.mean(pht));
           }}}},

        {"table4", "Table 4",
         "miss-ratio categorization (Oracle vs Optimistic)", baseline,
         [](const SimConfig &base) {
             return grid(benchmarkNames(), {withPolicy(base, Oracle)});
         },
         [](const View &v) { printPaperTable(v, table4Columns()); },
         {{"spec_prefetch_beats_pollute", {}, [](const View &v) {
               return less(v.mean(classified(&C::specPollutePercent)),
                           v.mean(classified(&C::specPrefetchPercent)));
           }},
          {"spec_prefetch_beats_pollute_branchy", cpp, [](const View &v) {
               return less(v.classified().specPollutePercent(),
                           v.classified().specPrefetchPercent());
           }},
          {"fortran_speculation_small", fortran, [](const View &v) {
               // SPo + SPr below the branchy profiles' mean.
               return less(speculative(v), v.mean(speculative, cpp));
           }},
          {"wrong_path_large", cpp, [](const View &v) {
               return less(speculative(v), v.classified().wrongPathPercent());
           }},
          {"traffic_ratio_branchy", cpp,
           [](const View &v) {
               double tr = v.classified().trafficRatio();
               return all({atMost(1.3, tr), atMost(tr, 1.6)});
           },
           "EXPERIMENTS.md known deviation 7"},
          {"traffic_ratio_fortran", fortran,
           [](const View &v) {
               return near(v.classified().trafficRatio(), 1.0, kNear);
           },
           "EXPERIMENTS.md known deviation 8"}}},

        {"fig1", "Figure 1", "penalty breakdown, baseline architecture",
         baseline,
         [](const SimConfig &base) { return figureCells(base, false); },
         [](const View &v) {
             printBreakdown(v, false);
             std::printf("\nsuite-average total ISPI by policy:\n");
             for (FetchPolicy policy : allPolicies()) {
                 std::printf("  %-12s %.3f\n", toString(policy).c_str(),
                             v.mean(policy));
             }
         },
         {{"optimistic_beats_pessimistic_on_average", {},
           [](const View &v) {
               return less(v.mean(Optimistic), v.mean(Pessimistic));
           }},
          {"resume_best", {}, [](const View &v) {
               return all({atMost(v.mean(Resume), v.mean(Optimistic)),
                           atMost(v.mean(Resume), v.mean(Pessimistic))});
           }},
          {"resume_near_oracle", {}, [](const View &v) {
               return near(v.mean(Resume), v.mean(Oracle), kNear);
           }},
          {"decode_near_pessimistic", {}, [](const View &v) {
               return near(v.mean(Decode), v.mean(Pessimistic), kNear);
           }},
          {"force_resolve_dominant", {}, [](const View &v) {
               // Pessimistic and Decode exceed Oracle most in
               // force_resolve.
               return each(std::vector{Pessimistic, Decode}, [&](auto p) {
                   double other = 0.0;
                   for (PenaltyKind kind : allPenaltyKinds())
                       if (kind != PenaltyKind::ForceResolve)
                           other = std::max(other, excess(v, p, kind));
                   return less(other,
                               excess(v, p, PenaltyKind::ForceResolve));
               });
           }},
          {"branch_full_near_zero", benchmarkNames(),
           [](const View &v) {
               double worst = 0.0;
               for (FetchPolicy p : allPolicies())
                   worst = std::max(worst,
                                    v.at(p).ispiOf(PenaltyKind::BranchFull));
               return atMost(worst, 0.05);
           },
           "EXPERIMENTS.md known deviation 6"},
          {"optimistic_beats_pessimistic", kSix, [](const View &v) {
               return less(v.ispi(Optimistic), v.ispi(Pessimistic));
           }},
          {"pessimistic_traffic_equals_oracle", kSix, [](const View &v) {
               // Neither services wrong-path misses nor prefetches,
               // and the correct path is shared.
               return near(static_cast<double>(v.at(Pessimistic).demandFills),
                           static_cast<double>(v.at(Oracle).demandFills),
                           0.02);
           }},
          {"aggressive_policies_add_traffic", kSix, [](const View &v) {
               return each(std::vector{Optimistic, Resume}, [&](auto p) {
                   return atMost(traffic(v.at(Oracle)), traffic(v.at(p)));
               });
           }},
          {"resume_no_worse_than_optimistic", kSix, [](const View &v) {
               // Resume only removes stall time; 3% for divergent
               // predictor timing.
               return atMost(v.ispi(Resume), v.ispi(Optimistic) * 1.03);
           }}}},

        {"fig2", "Figure 2", "penalty breakdown, 20-cycle miss penalty",
         penalty(baseline, 20),
         [](const SimConfig &base) {
             return figureCells(base, false, kRepresentative) +
                    figureCells(base, false, cpp) +
                    grid(kSix, {withPolicy(penalty(base, 5), Optimistic),
                                withPolicy(penalty(base, 5), Pessimistic)});
         },
         [](const View &v) {
             printBreakdown(v, false);
             std::printf("\nC/C++-average total ISPI at 20 cycles: "
                         "Opt %.3f, Res %.3f, Pess %.3f\n",
                         v.mean(Optimistic, false, cpp),
                         v.mean(Resume, false, cpp),
                         v.mean(Pessimistic, false, cpp));
         },
         {{"pessimistic_beats_optimistic_on_average", {},
           [](const View &v) {
               return atMost(v.mean(Pessimistic, false, cpp),
                             v.mean(Optimistic, false, cpp));
           }},
          {"resume_near_pessimistic", {}, [](const View &v) {
               return near(v.mean(Resume, false, cpp),
                           v.mean(Pessimistic, false, cpp), kNear);
           }},
          {"long_latency_favors_conservative", kSix, [](const View &v) {
               // Pessimistic over Optimistic ISPI falls from 5 to 20
               // cycles.
               View at5{v.cells, penalty(v.base, 5), v.profile};
               return less(v.ispi(Pessimistic) / v.ispi(Optimistic),
                           at5.ispi(Pessimistic) / at5.ispi(Optimistic));
           }}}},

        {"table5", "Table 5", "effect of speculation depth", baseline,
         [](const SimConfig &base) {
             return figureCells(depth(base, 1), false) +
                    figureCells(depth(base, 2), false) +
                    figureCells(base, false);
         },
         [](const View &v) {
             for (size_t d = 0; d < 3; ++d) {
                 unsigned unresolved = 1u << d;
                 std::printf("%s--- %u unresolved branch%s ---\n",
                             d ? "\n" : "", unresolved, d ? "es" : "");
                 printPaperTable(
                     v, policyColumns(depth(v.base, unresolved),
                                      [d](size_t b, size_t p) {
                                          const paper::Table5Row &r =
                                              paper::kTable5[b];
                                          return (d == 0   ? r.depth1
                                                  : d == 1 ? r.depth2
                                                           : r.depth4)[p];
                                      },
                                      paper::kTable5Average[d]));
             }
         },
         {{"ispi_falls_with_depth", {}, [](const View &v) {
               return each(allPolicies(), [&](FetchPolicy p) {
                   auto at = [&](unsigned d) { return atDepth(v, d).mean(p); };
                   return all({less(at(2), at(1)), less(at(4), at(2))});
               });
           }},
          {"first_step_larger", {}, [](const View &v) {
               return each(allPolicies(), [&](FetchPolicy p) {
                   auto at = [&](unsigned d) { return atDepth(v, d).mean(p); };
                   return less(at(2) - at(4), at(1) - at(2));
               });
           }},
          {"fortran_gains_least", {}, [](const View &v) {
               // Per policy, the largest Fortran-like ISPI drop from
               // depth 1 to 4 is below the smallest branchy one.
               return each(allPolicies(), [&](FetchPolicy p) {
                   auto drops = [&](const std::vector<std::string> &names) {
                       std::vector<double> out;
                       for (const std::string &name : names)
                           out.push_back(atDepth(v.of(name), 1).ispi(p) -
                                         v.of(name).ispi(p));
                       return out;
                   };
                   std::vector<double> f = drops(fortran), c = drops(cpp);
                   return less(*std::max_element(f.begin(), f.end()),
                               *std::min_element(c.begin(), c.end()));
               });
           }},
          {"deeper_speculation_helps", kSix, [](const View &v) {
               // Oracle ISPI falls with depth, 1->2 the larger step;
               // 0.1% slack on 2->4.
               auto at = [&](unsigned d) { return atDepth(v, d).ispi(Oracle); };
               return all({less(at(2), at(1)), atMost(at(4) * 0.999, at(2)),
                           less(at(2) - at(4), at(1) - at(2))});
           }}}},

        {"table6", "Table 6", "effect of cache size (32K)",
         cacheKB(baseline, 32),
         [](const SimConfig &base) {
             return figureCells(base, false) +
                    figureCells(cacheKB(base, 8), false);
         },
         [](const View &v) {
             printPaperTable(
                 v, policyColumns(
                        v.base,
                        [](size_t b, size_t p) { return paper::kTable6[b][p]; },
                        paper::kTable6Average));
         },
         {{"all_ispi_shrink", benchmarkNames(), [](const View &v) {
               return each(allPolicies(), [&](FetchPolicy p) {
                   return less(v.ispi(p), at8K(v).ispi(p));
               });
           }},
          {"gaps_compress", {}, [](const View &v) {
               // In percent; paper: ~10% at 32K vs ~19% at 8K.
               return less(policyGap(v), policyGap(at8K(v)));
           }},
          {"gap_roughly_halves", {}, [](const View &v) {
               return near(policyGap(v) / policyGap(at8K(v)), 0.5, kNear);
           }},
          {"larger_cache_shrinks_ispi", kSix, [](const View &v) {
               return all({less(v.ispi(Resume), at8K(v).ispi(Resume)),
                           less(v.at(Resume).missRatePercent(),
                                at8K(v).at(Resume).missRatePercent())});
           }}}},

        {"fig3", "Figure 3", "next-line prefetching, 5-cycle penalty",
         baseline,
         [](const SimConfig &base) { return figureCells(base, true); },
         [](const View &v) {
             printBreakdown(v, true);
             std::printf("\nsuite-average ISPI: Oracle %.3f/%.3f(+pref), "
                         "Resume %.3f/%.3f, Pessimistic %.3f/%.3f\n",
                         v.mean(Oracle), v.mean(Oracle, true),
                         v.mean(Resume), v.mean(Resume, true),
                         v.mean(Pessimistic), v.mean(Pessimistic, true));
         },
         {{"prefetch_helps_every_policy", {}, [](const View &v) {
               return each(kThree, [&](FetchPolicy p) {
                   return less(v.mean(p, true), v.mean(p));
               });
           }},
          {"resume_near_pessimistic_prefetch", {}, [](const View &v) {
               return near(v.mean(Resume), v.mean(Pessimistic, true), 0.25);
           }},
          {"prefetch_compresses_gaps", {}, [](const View &v) {
               return less(v.mean(Pessimistic, true) - v.mean(Resume, true),
                           v.mean(Pessimistic) - v.mean(Resume));
           }},
          {"prefetch_adds_traffic", kSix, [](const View &v) {
               return each(kThree, [&](FetchPolicy p) {
                   return less(traffic(v.at(p)), traffic(v.at(p, true)));
               });
           }},
          {"prefetch_helps", kSix, [](const View &v) {
               // 2% slack for noise.
               return each(kThree, [&](FetchPolicy p) {
                   return less(v.ispi(p, true), v.ispi(p) * 1.02);
               });
           }}}},

        {"fig4", "Figure 4", "next-line prefetching, 20-cycle penalty",
         penalty(baseline, 20),
         [](const SimConfig &base) { return figureCells(base, true); },
         [](const View &v) {
             printBreakdown(v, true);
             std::printf("\nsuite-average ISPI (bus component): "
                         "Oracle %.3f(%.3f) / +pref %.3f(%.3f); "
                         "Resume %.3f(%.3f) / +pref %.3f(%.3f); "
                         "Pess %.3f(%.3f) / +pref %.3f(%.3f)\n",
                         v.mean(Oracle), meanBus(v, Oracle, false),
                         v.mean(Oracle, true), meanBus(v, Oracle, true),
                         v.mean(Resume), meanBus(v, Resume, false),
                         v.mean(Resume, true), meanBus(v, Resume, true),
                         v.mean(Pessimistic), meanBus(v, Pessimistic, false),
                         v.mean(Pessimistic, true),
                         meanBus(v, Pessimistic, true));
         },
         {{"prefetch_inflates_bus", {}, [](const View &v) {
               return each(std::vector{Oracle, Pessimistic}, [&](auto p) {
                   return less(meanBus(v, p, false), meanBus(v, p, true));
               });
           }},
          {"prefetch_no_clear_win", {}, [](const View &v) {
               // Some policy is hurt or helped by under 3%.
               double worst = 0.0;
               for (FetchPolicy p : kThree)
                   worst = std::max(worst, v.mean(p, true) / v.mean(p));
               return less(0.97, worst);
           }},
          {"prefetch_hurts_oracle", {}, [](const View &v) {
               return less(v.mean(Oracle), v.mean(Oracle, true));
           }}}},

        {"table7", "Table 7", "memory traffic with next-line prefetching",
         baseline,
         [](const SimConfig &base) {
             return grid(benchmarkNames(), {withPolicy(base, Oracle)}) +
                    figureCells(base, true);
         },
         [](const View &v) {
             const double average[3] = {1.35, 1.56, 1.38};
             std::vector<Column> columns;
             for (size_t p = 0; p < 3; ++p) {
                 columns.push_back(
                     {toString(kThree[p]),
                      [p](const View &q) { return trafficRatio(q, kThree[p]); },
                      [p](size_t b) { return paper::kTable7[b][p]; },
                      average[p]});
             }
             printPaperTable(v, columns);
         },
         {{"resume_most_traffic", {}, [](const View &v) {
               return all({less(meanTraffic(v, Oracle),
                                meanTraffic(v, Resume)),
                           less(meanTraffic(v, Pessimistic),
                                meanTraffic(v, Resume))});
           }},
          {"pessimistic_near_oracle", {}, [](const View &v) {
               return near(meanTraffic(v, Pessimistic),
                           meanTraffic(v, Oracle), kNear);
           }},
          {"ratios_above_one", benchmarkNames(), [](const View &v) {
               return each(kThree, [&](FetchPolicy p) {
                   return less(1.0, trafficRatio(v, p));
               });
           }}}},

        {"ablation_cache_geometry", "Ablation",
         "cache geometry (associativity, line size)", baseline,
         [](const SimConfig &base) {
             return ablationCells(base, kGeometryPrograms, kGeometry);
         },
         [](const View &v) {
             printAblations(v, kGeometryPrograms, kGeometry);
         }},

        {"ablation_branch_arch", "Ablation", "branch architecture sizing",
         baseline,
         [](const SimConfig &base) {
             return ablationCells(base, kBranchPrograms, kBranchArch);
         },
         [](const View &v) {
             printAblations(v, kBranchPrograms, kBranchArch);
         }},

        {"ablation_future_work", "Ablation",
         "paper §6 further-study features", withPolicy(baseline, Resume),
         [](const SimConfig &base) {
             return grid(kFutureWorkPrograms, {base}) +
                    grid(reorderedFutureWork(), {base}) +
                    ablationCells(base, kFutureWorkPrograms, kFutureWork);
         },
         [](const View &v) {
             std::printf("--- profile-driven basic-block reordering ---\n");
             TextTable table;
             table.setColumns({"Program", "miss% before", "after",
                               "ISPI before", "after", "delta%"});
             for (const std::string &name : kFutureWorkPrograms) {
                 const SimResults &before = v.of(name).at(Resume);
                 const SimResults &after = v.of(reordered(name)).at(Resume);
                 double delta =
                     100.0 * (after.ispi() - before.ispi()) / before.ispi();
                 table.addRow({name, missPercent(before), missPercent(after),
                               formatFixed(before.ispi(), 3),
                               formatFixed(after.ispi(), 3),
                               formatFixed(delta, 1)});
             }
             emitTable(table);
             printAblations(v, kFutureWorkPrograms, kFutureWork);
         },
         {{"reordering_lowers_ispi", {"li", "cfront"}, [](const View &v) {
               return less(v.of(reordered(v.profile)).ispi(Resume),
                           v.ispi(Resume));
           }},
          {"reordering_raises_ispi", {"groff", "fpppp"}, [](const View &v) {
               return less(v.ispi(Resume),
                           v.of(reordered(v.profile)).ispi(Resume));
           }},
          {"channels_overlap_bus", kFutureWorkPrograms, [](const View &v) {
               auto bus = [&](unsigned n) {
                   return v.at(channels(n)).ispiOf(PenaltyKind::Bus);
               };
               return all(
                   {less(bus(2), 0.5 * bus(1)), atMost(bus(4), bus(2))});
           }},
          {"victim_cuts_misses", kFutureWorkPrograms, [](const View &v) {
               return less(v.at(victims(8)).missRatePercent(),
                           v.at(victims(0)).missRatePercent());
           }},
          {"victim_favors_conflicts", {}, [](const View &v) {
               // fpppp's misses are capacity misses, a cyclic sweep far
               // wider than the buffer; li's are conflicts it recovers.
               return less(victimDrop(v.of("fpppp")),
                           victimDrop(v.of("li")));
           }},
          {"l2_between_flat_latencies", kFutureWorkPrograms,
           [](const View &v) {
               auto l2 = [&](uint64_t kb) { return v.at(l2KB(kb)).ispi(); };
               return all({less(v.ispi(Resume), l2(64)), less(l2(64), l2(16)),
                           less(l2(16), v.at(penalty(v.base, 20)).ispi())});
           }},
          {"combined_prefetch_best", kFutureWorkPrograms, [](const View &v) {
               using enum PrefetchKind;
               return each(std::vector{None, NextLine, Target, Stream},
                           [&](PrefetchKind kind) {
                               return less(prefetchIspi(v, Combined),
                                           prefetchIspi(v, kind));
                           });
           }},
          {"next_line_beats_stream", kFutureWorkPrograms, [](const View &v) {
               using enum PrefetchKind;
               return all({less(prefetchIspi(v, NextLine),
                                prefetchIspi(v, Stream)),
                           less(prefetchIspi(v, Stream),
                                prefetchIspi(v, None))});
           }},
          {"target_near_none", kFutureWorkPrograms, [](const View &v) {
               using enum PrefetchKind;
               return near(prefetchIspi(v, Target), prefetchIspi(v, None),
                           0.03);
           }}}},
    };
    return rows;
}

} // namespace bench
} // namespace specfetch

#endif // SPECFETCH_BENCH_EXPERIMENTS_HH_
