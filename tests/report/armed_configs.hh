/**
 * @file
 * Configurations that together arm every conditional member of the
 * run manifest, spell every value of each manifest enum and set a
 * non-default machine and predictor. Shared by the manifest round-trip
 * tests and the service-request fuzzer.
 */

#ifndef SPECFETCH_TESTS_REPORT_ARMED_CONFIGS_HH_
#define SPECFETCH_TESTS_REPORT_ARMED_CONFIGS_HH_

#include <vector>

#include "core/config.hh"

namespace specfetch::test {

inline std::vector<SimConfig>
armedConfigs()
{
    std::vector<SimConfig> configs(1); // the defaults
    auto add = [&configs](auto arm) {
        SimConfig config;
        arm(config);
        configs.push_back(config);
    };
    add([](SimConfig &c) {
        c.l2Enabled = true;
        c.l2Cache.sizeBytes = 128 * 1024;
        c.l2Cache.lineBytes = 64;
        c.l2HitCycles = 6;
        c.l2MissCycles = 30;
    });
    add([](SimConfig &c) {
        c.victimEntries = 8;
        c.victimHitCycles = 2;
    });
    for (CheckLevel level : {CheckLevel::Cheap, CheckLevel::Paranoid}) {
        add([level](SimConfig &c) {
            c.checkLevel = level;
            c.checkpointInterval = 5'000;
        });
    }
    add([](SimConfig &c) {
        c.sampleInterval = 10'000;
        c.setHeatmap = true;
    });
    for (SelectorKind kind : {SelectorKind::Static, SelectorKind::Threshold,
                              SelectorKind::Bandit}) {
        add([kind](SimConfig &c) {
            c.adaptiveSelector = kind;
            c.adaptiveInterval = 20'000;
            c.adaptiveSeed = 7;
            c.adaptiveEpsilon = 0.25;
        });
    }
    for (PrefetchKind kind :
         {PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Target,
          PrefetchKind::Combined, PrefetchKind::Stream}) {
        add([kind](SimConfig &c) {
            c.prefetchKind = kind;
            c.targetTableEntries = 128;
        });
    }
    // The shorthand the manifest folds into prefetch_kind.
    add([](SimConfig &c) { c.nextLinePrefetch = true; });
    for (PhtIndexing indexing :
         {PhtIndexing::Gshare, PhtIndexing::GlobalOnly, PhtIndexing::PcOnly,
          PhtIndexing::Local, PhtIndexing::Combining}) {
        add([indexing](SimConfig &c) { c.predictor.phtIndexing = indexing; });
    }
    add([](SimConfig &c) {
        c.policy = FetchPolicy::Pessimistic;
        c.issueWidth = 8;
        c.maxUnresolved = 2;
        c.decodeCycles = 1;
        c.resolveCycles = 3;
        c.icache = {16 * 1024, 64, 2};
        c.missPenaltyCycles = 20;
        c.memoryChannels = 2;
        c.predictor = {128, 2, 1024, 3, PhtIndexing::Local, 2048, 8};
        c.instructionBudget = 123'457;
        c.warmupInstructions = 1'000;
        c.runSeed = 7;
    });
    return configs;
}

} // namespace specfetch::test

#endif // SPECFETCH_TESTS_REPORT_ARMED_CONFIGS_HH_
