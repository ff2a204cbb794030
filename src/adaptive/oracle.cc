#include "adaptive/oracle.hh"

#include "core/simulator.hh"
#include "util/logging.hh"

namespace specfetch {

size_t
PerIntervalOracle::bestStaticIndex() const
{
    panic_if(staticIspi.empty(), "per-interval oracle has no candidates");
    size_t best = 0;
    for (size_t i = 1; i < staticIspi.size(); ++i) {
        if (staticIspi[i] < staticIspi[best])
            best = i;
    }
    return best;
}

PerIntervalOracle
buildPerIntervalOracle(const std::vector<FetchPolicy> &policies,
                       std::vector<std::vector<EpochRecord>> epochs,
                       std::vector<double> staticIspi, uint64_t interval)
{
    panic_if(policies.empty(), "per-interval oracle needs candidates");
    panic_if(epochs.size() != policies.size() ||
                 staticIspi.size() != policies.size(),
             "per-interval oracle inputs disagree on candidate count");

    PerIntervalOracle oracle;
    oracle.interval = interval;
    oracle.policies = policies;
    oracle.epochs = std::move(epochs);
    oracle.staticIspi = std::move(staticIspi);

    // Every candidate retires the same budget over the same epoch
    // grid; anything else means the series are not comparable.
    size_t numEpochs = oracle.epochs.front().size();
    for (size_t p = 0; p < oracle.policies.size(); ++p) {
        panic_if(oracle.epochs[p].size() != numEpochs,
                 "policy %s produced %zu epochs, expected %zu",
                 toString(oracle.policies[p]).c_str(),
                 oracle.epochs[p].size(), numEpochs);
    }
    panic_if(numEpochs == 0, "per-interval oracle needs at least one epoch");
    oracle.instructions = oracle.epochs.front().back().lastInstruction;

    uint64_t total_best = 0;
    for (size_t e = 0; e < numEpochs; ++e) {
        size_t best = 0;
        uint64_t best_slots = oracle.epochs[0][e].penalty.totalSlots();
        for (size_t p = 1; p < oracle.policies.size(); ++p) {
            panic_if(oracle.epochs[p][e].lastInstruction !=
                         oracle.epochs[0][e].lastInstruction,
                     "epoch grids diverge at epoch %zu", e);
            uint64_t slots = oracle.epochs[p][e].penalty.totalSlots();
            if (slots < best_slots) {
                best = p;
                best_slots = slots;
            }
        }
        oracle.bestPolicy.push_back(oracle.policies[best]);
        oracle.bestPenaltySlots.push_back(best_slots);
        total_best += best_slots;
    }
    oracle.oracleIspi = oracle.instructions == 0
        ? 0.0
        : static_cast<double>(total_best) /
              static_cast<double>(oracle.instructions);
    return oracle;
}

PerIntervalOracle
computePerIntervalOracle(const Workload &workload, const SimConfig &base,
                         uint64_t interval)
{
    panic_if(interval == 0, "per-interval oracle needs a positive interval");
    const std::vector<FetchPolicy> &policies = allPolicies();
    std::vector<std::vector<EpochRecord>> epochs;
    std::vector<double> staticIspi;
    for (FetchPolicy policy : policies) {
        SimConfig config = base;
        config.policy = policy;
        config.adaptiveSelector = SelectorKind::Off;
        config.sampleInterval = interval;
        config.setHeatmap = false;
        RunObservations obs;
        SimResults results = runSimulation(workload, config, obs);
        epochs.push_back(std::move(obs.epochs));
        staticIspi.push_back(results.ispi());
    }
    return buildPerIntervalOracle(policies, std::move(epochs),
                                  std::move(staticIspi), interval);
}

AdaptiveRegret
computeRegret(double adaptiveIspi, const PerIntervalOracle &oracle)
{
    AdaptiveRegret regret;
    regret.adaptiveIspi = adaptiveIspi;
    regret.bestStaticIspi = oracle.bestStaticIspi();
    regret.bestStaticPolicy = oracle.bestStaticPolicy();
    regret.oracleIspi = oracle.oracleIspi;
    regret.regret = adaptiveIspi - oracle.oracleIspi;
    double gap = regret.bestStaticIspi - oracle.oracleIspi;
    if (gap > 0.0) {
        regret.gapClosed = (regret.bestStaticIspi - adaptiveIspi) / gap;
    } else {
        // Degenerate run: the best static policy already sits on the
        // bound, so there is no gap to close.
        regret.gapClosed = adaptiveIspi <= regret.bestStaticIspi ? 1.0 : 0.0;
    }
    return regret;
}

} // namespace specfetch
