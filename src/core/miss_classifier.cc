#include "core/miss_classifier.hh"

#include "check/invariant.hh"
#include "core/fetch_engine.hh"
#include "report/record.hh"
#include "stats/stats.hh"
#include "trace/snapshot.hh"
#include "util/logging.hh"
#include "workload/executor.hh"

namespace specfetch {

double
Classification::bothMissPercent() const
{
    return 100.0 * ratioOf(bothMiss, instructions);
}

double
Classification::specPollutePercent() const
{
    return 100.0 * ratioOf(specPollute, instructions);
}

double
Classification::specPrefetchPercent() const
{
    return 100.0 * ratioOf(specPrefetch, instructions);
}

double
Classification::wrongPathPercent() const
{
    return 100.0 * ratioOf(wrongPath, instructions);
}

double
Classification::trafficRatio() const
{
    return ratioOf(optimisticMisses(), oracleMisses());
}

namespace {

/** The lockstep oracle-shadow observer. */
class ShadowObserver : public AccessObserver
{
  public:
    explicit ShadowObserver(const ICacheConfig &geometry)
        : oracle(geometry)
    {
    }

    void
    onCorrectAccess(Addr line_addr, bool policy_hit) override
    {
        bool oracle_hit = oracle.access(line_addr);
        if (!oracle_hit)
            oracle.insert(line_addr);

        if (!oracle_hit && !policy_hit)
            ++bothMiss;
        else if (oracle_hit && !policy_hit)
            ++specPollute;
        else if (!oracle_hit && policy_hit)
            ++specPrefetch;
    }

    void onWrongPathMiss(Addr) override { ++wrongPath; }

    uint64_t bothMiss = 0;
    uint64_t specPollute = 0;
    uint64_t specPrefetch = 0;
    uint64_t wrongPath = 0;

  private:
    ICache oracle;
};

/** Both classifyMisses overloads: one Optimistic run of @p source
 *  under classificationConfig(@p config) with the shadow attached. */
template <typename Source>
Classification
classifyWith(const Workload &workload, const SimConfig &config,
             Source &source, SimResults *timed_results)
{
    SimConfig cfg = classificationConfig(config);
    ShadowObserver shadow(cfg.icache);
    FetchEngine engine(cfg, workload.image);
    engine.setObserver(&shadow);
    SimResults results = engine.runWith(source);

    Classification out;
    out.workload = workload.profile.name;
    out.instructions = results.instructions;
    out.bothMiss = shadow.bothMiss;
    out.specPollute = shadow.specPollute;
    out.specPrefetch = shadow.specPrefetch;
    out.wrongPath = shadow.wrongPath;

    if (cfg.checkLevel != CheckLevel::Off) {
        InvariantAuditor auditor(cfg.checkLevel);
        auditClassification(out, results,
                            engine.memoryBus().transactions.value(),
                            auditor);
        if (!auditor.clean()) {
            auditor.emitReport(cfg);
            panic("Table 4 conservation violated for workload '%s': %s",
                  out.workload.c_str(),
                  auditor.violations().front().detail.c_str());
        }
    }

    if (timed_results)
        *timed_results = results;
    return out;
}

} // namespace

SimConfig
classificationConfig(const SimConfig &config)
{
    SimConfig cfg = config;
    cfg.policy = FetchPolicy::Optimistic;
    cfg.nextLinePrefetch = false;
    cfg.prefetchKind = PrefetchKind::None;
    cfg.warmupInstructions = 0;
    cfg.adaptiveSelector = SelectorKind::Off;
    cfg.sampleInterval = 0;
    cfg.setHeatmap = false;
    return cfg;
}

std::string
classificationKey(const std::string &benchmark, const SimConfig &config)
{
    return benchmark + "|" + toJson(classificationConfig(config)).dump();
}

Classification
classifyMisses(const Workload &workload, const SimConfig &config,
               SimResults *timed_results)
{
    Executor executor(workload.cfg, config.runSeed);
    return classifyWith(workload, config, executor, timed_results);
}

Classification
classifyMisses(const Workload &workload, const SimConfig &config,
               const TraceSnapshot &snapshot)
{
    SnapshotReplaySource source(snapshot);
    return classifyWith(workload, config, source, nullptr);
}

} // namespace specfetch
