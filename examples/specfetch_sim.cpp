/**
 * @file
 * The full-configuration simulator driver: every machine knob the
 * library exposes, on one command line. One run, full report,
 * optional gem5-style stats dump and miss classification.
 *
 *   ./specfetch_sim --benchmark=gcc --policy=resume --budget=20M
 *   ./specfetch_sim --benchmark=groff --policy=pessimistic \
 *       --miss-penalty=20 --prefetch-kind=combined --channels=2
 *   ./specfetch_sim --benchmark=li --reorder --stats --classify
 */

#include <chrono>
#include <cstdio>

#include "adaptive/adaptive_record.hh"
#include "adaptive/selector_kind.hh"
#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "report/record.hh"
#include "report/report.hh"
#include "util/options.hh"
#include "workload/registry.hh"
#include "workload/reorder.hh"

using namespace specfetch;

int
main(int argc, char **argv)
{
    OptionParser opts("specfetch_sim",
                      "single fully-configurable simulation run");
    opts.addString("benchmark", "gcc", "workload profile name");
    opts.addString("policy", "resume",
                   "oracle|optimistic|resume|pessimistic|decode");
    opts.addCount("budget", 4'000'000, "instructions to simulate");
    opts.addCount("warmup", 0, "instructions before stats reset");
    opts.addCount("seed", 42, "dynamic-behavior seed");

    opts.addSize("cache", 8 * 1024, "I-cache bytes");
    opts.addCount("ways", 1, "I-cache associativity");
    opts.addCount("line", 32, "I-cache line bytes");
    opts.addCount("miss-penalty", 5, "miss penalty, cycles");
    opts.addCount("channels", 1, "overlapping memory transactions");

    opts.addString("prefetch-kind", "none",
                   "none|next-line|target|combined|stream");
    opts.addCount("target-table", 64, "target-prefetch table entries");

    opts.addCount("width", 4, "issue width (slots per cycle)");
    opts.addCount("depth", 4, "max unresolved conditional branches");
    opts.addCount("decode", 2, "decode latency, cycles");
    opts.addCount("resolve", 4, "conditional resolve latency, cycles");

    opts.addCount("btb", 64, "BTB entries");
    opts.addCount("btb-ways", 4, "BTB associativity");
    opts.addCount("pht", 512, "PHT counter entries");
    opts.addString("pht-indexing", "gshare",
                   "gshare|global|pc|local|combining");
    opts.addCount("ras", 0, "return-address-stack depth (0 = none)");
    opts.addCount("victim", 0, "victim-cache entries (0 = none)");
    opts.addCount("victim-hit-cycles", 1,
                  "victim-cache hit latency, cycles");
    opts.addFlag("l2", "enable the explicit 64K L2 (5/20-cycle split)");
    opts.addCount("l2-hit-cycles", 5, "L2 hit latency, cycles");
    opts.addCount("l2-miss-cycles", 20, "L2 miss latency, cycles");

    opts.addString("adaptive", "",
                   "per-epoch policy selection: static|threshold|bandit");
    opts.addCount("adaptive-interval", 50'000,
                  "adaptive decision epoch, retired instructions");
    opts.addCount("adaptive-seed", 1, "bandit exploration seed");

    opts.addFlag("reorder", "apply profile-guided block reordering");
    opts.addFlag("stats", "dump the full statistics tree");
    opts.addFlag("classify", "also run the Table-4 miss classification");
    opts.addString("json", "",
                   "write the run as one schema-v1 JSONL record");
    if (!opts.parse(argc, argv))
        return 1;

    SimConfig config;
    if (!parsePolicy(opts.getString("policy"), config.policy)) {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     opts.getString("policy").c_str());
        return 1;
    }
    if (!parsePrefetchKind(opts.getString("prefetch-kind"),
                           config.prefetchKind)) {
        std::fprintf(stderr, "unknown prefetch kind '%s'\n",
                     opts.getString("prefetch-kind").c_str());
        return 1;
    }
    if (!parsePhtIndexing(opts.getString("pht-indexing"),
                          config.predictor.phtIndexing)) {
        std::fprintf(stderr, "unknown PHT indexing '%s'\n",
                     opts.getString("pht-indexing").c_str());
        return 1;
    }

    if (!opts.getString("adaptive").empty()) {
        if (!parseSelectorKind(opts.getString("adaptive"),
                               config.adaptiveSelector) ||
            config.adaptiveSelector == SelectorKind::Off) {
            std::fprintf(stderr, "unknown adaptive selector '%s'\n",
                         opts.getString("adaptive").c_str());
            return 1;
        }
    }
    config.adaptiveInterval = opts.getCount("adaptive-interval");
    config.adaptiveSeed = opts.getCount("adaptive-seed");

    config.instructionBudget = opts.getCount("budget");
    config.warmupInstructions = opts.getCount("warmup");
    config.runSeed = opts.getCount("seed");
    config.icache.sizeBytes = opts.getSize("cache");
    config.icache.ways = static_cast<unsigned>(opts.getCount("ways"));
    config.icache.lineBytes =
        static_cast<unsigned>(opts.getCount("line"));
    config.missPenaltyCycles =
        static_cast<unsigned>(opts.getCount("miss-penalty"));
    config.memoryChannels =
        static_cast<unsigned>(opts.getCount("channels"));
    config.targetTableEntries =
        static_cast<unsigned>(opts.getCount("target-table"));
    config.issueWidth = static_cast<unsigned>(opts.getCount("width"));
    config.maxUnresolved = static_cast<unsigned>(opts.getCount("depth"));
    config.decodeCycles = static_cast<unsigned>(opts.getCount("decode"));
    config.resolveCycles =
        static_cast<unsigned>(opts.getCount("resolve"));
    config.predictor.btbEntries =
        static_cast<unsigned>(opts.getCount("btb"));
    config.predictor.btbWays =
        static_cast<unsigned>(opts.getCount("btb-ways"));
    config.predictor.phtEntries =
        static_cast<unsigned>(opts.getCount("pht"));
    config.predictor.rasDepth =
        static_cast<unsigned>(opts.getCount("ras"));
    config.victimEntries =
        static_cast<unsigned>(opts.getCount("victim"));
    config.victimHitCycles =
        static_cast<unsigned>(opts.getCount("victim-hit-cycles"));
    config.l2Enabled = opts.getFlag("l2");
    config.l2HitCycles =
        static_cast<unsigned>(opts.getCount("l2-hit-cycles"));
    config.l2MissCycles =
        static_cast<unsigned>(opts.getCount("l2-miss-cycles"));
    config.validate();

    Workload workload =
        buildWorkload(getProfile(opts.getString("benchmark")));
    if (opts.getFlag("reorder")) {
        workload = reorderWorkload(workload, config.runSeed + 1,
                                   config.instructionBudget / 2 + 1);
        std::printf("applied profile-guided reordering "
                    "(trained on seed %llu)\n\n",
                    static_cast<unsigned long long>(config.runSeed + 1));
    }

    std::printf("machine: %s\n\n", config.describe().c_str());
    auto runStart = std::chrono::steady_clock::now();
    RunObservations observations;
    SimResults results = runSimulation(workload, config, observations);
    double runSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      runStart)
            .count();
    std::fputs(results.summary().c_str(), stdout);

    if (observations.adaptive.enabled()) {
        const AdaptiveLog &log = observations.adaptive;
        std::printf("\nadaptive selection (%s, epoch %llu): %llu epochs, "
                    "%llu switches\n",
                    toString(config.adaptiveSelector).c_str(),
                    static_cast<unsigned long long>(log.interval),
                    static_cast<unsigned long long>(log.choices.size()),
                    static_cast<unsigned long long>(log.switches));
        for (const AdaptiveChoice &choice : log.choices) {
            std::printf("  epoch %4llu  [%llu, %llu)  %s\n",
                        static_cast<unsigned long long>(choice.epoch),
                        static_cast<unsigned long long>(
                            choice.firstInstruction),
                        static_cast<unsigned long long>(
                            choice.lastInstruction),
                        toString(choice.policy).c_str());
        }
    }

    if (opts.getFlag("stats")) {
        std::printf("\n%s", results.statsDump().c_str());
    }

    bool haveClassification = false;
    Classification classification;
    if (opts.getFlag("classify")) {
        classification = classifyMisses(workload, config);
        haveClassification = true;
        const Classification &c = classification;
        std::printf("\nmiss classification (Oracle vs Optimistic, "
                    "%% of instructions):\n");
        std::printf("  both miss:     %.2f\n", c.bothMissPercent());
        std::printf("  spec pollute:  %.2f\n", c.specPollutePercent());
        std::printf("  spec prefetch: %.2f\n", c.specPrefetchPercent());
        std::printf("  wrong path:    %.2f\n", c.wrongPathPercent());
        std::printf("  traffic ratio: %.2f\n", c.trafficRatio());
    }

    if (!opts.getString("json").empty()) {
        JsonlWriter writer(opts.getString("json"));
        if (!writer.ok()) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opts.getString("json").c_str());
            return 1;
        }
        RunTiming timing;
        timing.runSeconds = runSeconds;
        timing.sweepTotalSeconds = runSeconds;
        writer.write(makeRunRecord(
            results, config, &timing,
            haveClassification ? &classification : nullptr));
        if (observations.adaptive.enabled() &&
            !observations.adaptive.choices.empty()) {
            writer.write(makeAdaptiveRecord(observations.adaptive,
                                            results, config));
        }
        std::printf("\nwrote %llu record%s to %s\n",
                    static_cast<unsigned long long>(
                        writer.recordsWritten()),
                    writer.recordsWritten() == 1 ? "" : "s",
                    writer.path().c_str());
    }
    return 0;
}
