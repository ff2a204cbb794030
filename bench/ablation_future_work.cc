/**
 * @file
 * The paper's §6 "further study" list, measured: profile-driven
 * basic-block reordering, a pipelined memory interface (multiple
 * overlapping fills), and target/combined prefetching (§2.2 related
 * work). Everything is reported as total ISPI under the Resume
 * policy on the baseline machine unless noted.
 */

#include <cstdio>

#include "bench_support.hh"
#include "core/simulator.hh"
#include "workload/reorder.hh"

using namespace specfetch;
using namespace specfetch::bench;

int
main(int argc, char **argv)
{
    if (!benchMain().parse(argc, argv, "ablation_future_work",
                           "paper §6 further-study features",
                           kDefaultBudget / 2)) {
        return parseExitCode();
    }
    SimConfig base;
    base.instructionBudget = benchMain().budget;
    base.policy = FetchPolicy::Resume;
    banner("Ablation", "paper §6 further-study features", base);

    std::vector<std::string> benches{"gcc", "li", "groff", "cfront",
                                     "fpppp"};

    std::printf("--- profile-driven basic-block reordering ---\n");
    {
        TextTable table;
        table.setColumns({"Program", "miss% before", "after",
                          "ISPI before", "after", "delta%"});
        for (const std::string &name : benches) {
            Workload w = buildWorkload(getProfile(name));
            // Train on a different input (seed) than we evaluate on.
            Workload opt = reorderWorkload(w, /*profile_seed=*/7,
                                           /*profile_budget=*/1'000'000);
            SimResults before = runSimulation(w, base);
            SimResults after = runSimulation(opt, base);
            benchMain().emitRun(before, base);
            benchMain().emitRun(after, base);
            double delta =
                100.0 * (after.ispi() - before.ispi()) / before.ispi();
            table.addRow({name,
                          formatFixed(before.missRatePercent(), 2),
                          formatFixed(after.missRatePercent(), 2),
                          formatFixed(before.ispi(), 3),
                          formatFixed(after.ispi(), 3),
                          formatFixed(delta, 1)});
        }
        emitTable(table);
    }

    std::printf("\n--- pipelined memory interface (overlapping fills, "
                "20-cycle penalty, next-line prefetch) ---\n");
    {
        TextTable table;
        table.setColumns({"Program", "1 channel", "2", "4",
                          "bus ISPI @1", "@2", "@4"});
        for (const std::string &name : benches) {
            std::vector<std::string> row{name};
            std::vector<std::string> bus;
            for (unsigned channels : {1u, 2u, 4u}) {
                SimConfig config = base;
                config.missPenaltyCycles = 20;
                config.nextLinePrefetch = true;
                config.memoryChannels = channels;
                SimResults r = runOneReported(name, config);
                row.push_back(formatFixed(r.ispi(), 3));
                bus.push_back(
                    formatFixed(r.ispiOf(PenaltyKind::Bus), 3));
            }
            row.insert(row.end(), bus.begin(), bus.end());
            table.addRow(row);
        }
        emitTable(table);
    }

    std::printf("\n--- victim cache (Jouppi 90; recovers direct-mapped "
                "conflict misses on-chip) ---\n");
    {
        TextTable table;
        table.setColumns({"Program", "no victim", "4 entries",
                          "8 entries", "miss% base", "@4", "@8"});
        for (const std::string &name : benches) {
            std::vector<std::string> row{name};
            std::vector<std::string> miss;
            for (unsigned entries : {0u, 4u, 8u}) {
                SimConfig config = base;
                config.victimEntries = entries;
                SimResults r = runOneReported(name, config);
                row.push_back(formatFixed(r.ispi(), 3));
                miss.push_back(formatFixed(r.missRatePercent(), 2));
            }
            row.insert(row.end(), miss.begin(), miss.end());
            table.addRow(row);
        }
        emitTable(table);
    }

    std::printf("\n--- explicit L2 (the continuum between Figures 1 "
                "and 2) ---\n");
    {
        TextTable table;
        table.setColumns({"Program", "flat 5cyc", "L2 64K (5/20)",
                          "L2 16K", "flat 20cyc"});
        for (const std::string &name : benches) {
            SimConfig flat5 = base;
            SimConfig flat20 = base;
            flat20.missPenaltyCycles = 20;
            SimConfig l2big = base;
            l2big.l2Enabled = true;
            SimConfig l2small = l2big;
            l2small.l2Cache.sizeBytes = 16 * 1024;

            Workload w = buildWorkload(getProfile(name));
            SimResults r5 = runSimulation(w, flat5);
            SimResults r20 = runSimulation(w, flat20);
            SimResults rbig = runSimulation(w, l2big);
            SimResults rsmall = runSimulation(w, l2small);
            benchMain().emitRun(r5, flat5);
            benchMain().emitRun(r20, flat20);
            benchMain().emitRun(rbig, l2big);
            benchMain().emitRun(rsmall, l2small);
            table.addRow({name, formatFixed(r5.ispi(), 3),
                          formatFixed(rbig.ispi(), 3),
                          formatFixed(rsmall.ispi(), 3),
                          formatFixed(r20.ispi(), 3)});
        }
        emitTable(table);
        std::printf("(an L2's hit rate decides which of the paper's "
                    "two regimes — and therefore which policy — "
                    "applies)\n");
    }

    std::printf("\n--- prefetch mechanism (Smith & Hsu comparison) ---\n");
    {
        TextTable table;
        table.setColumns({"Program", "none", "next-line (paper)",
                          "target", "combined", "stream", "miss% none",
                          "next-line", "target", "combined", "stream"});
        for (const std::string &name : benches) {
            std::vector<std::string> row{name};
            std::vector<std::string> miss;
            for (PrefetchKind kind :
                 {PrefetchKind::None, PrefetchKind::NextLine,
                  PrefetchKind::Target, PrefetchKind::Combined,
                  PrefetchKind::Stream}) {
                SimConfig config = base;
                config.prefetchKind = kind;
                SimResults r = runOneReported(name, config);
                row.push_back(formatFixed(r.ispi(), 3));
                miss.push_back(formatFixed(r.missRatePercent(), 2));
            }
            row.insert(row.end(), miss.begin(), miss.end());
            table.addRow(row);
        }
        emitTable(table);
        std::printf("\n(Smith & Hsu 92: next-line slightly beats "
                    "target; the combination wins overall. Jouppi 90: "
                    "stream buffers remove most sequential misses "
                    "without polluting the array.)\n");
    }
    return 0;
}
