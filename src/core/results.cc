#include "core/results.hh"

#include "stats/stats.hh"
#include "util/string_utils.hh"

namespace specfetch {

double
SimResults::missRatePercent() const
{
    return 100.0 * ratioOf(demandMisses, instructions);
}

double
SimResults::wrongMissRatePercent() const
{
    return 100.0 * ratioOf(wrongMisses, instructions);
}

double
SimResults::phtMispredictIspi() const
{
    return ratioOf(dirMispredicts * mispredictSlots, instructions);
}

double
SimResults::btbMisfetchIspi() const
{
    return ratioOf(misfetches * misfetchSlots, instructions);
}

double
SimResults::btbMispredictIspi() const
{
    return ratioOf(targetMispredicts * mispredictSlots, instructions);
}

bool
operator==(const SimResults &a, const SimResults &b)
{
    return a.workload == b.workload && a.policy == b.policy &&
           a.prefetch == b.prefetch && a.instructions == b.instructions &&
           a.misfetchSlots == b.misfetchSlots &&
           a.mispredictSlots == b.mispredictSlots &&
           a.finalSlot == b.finalSlot && a.penalty == b.penalty &&
           static_cast<const RunCounters &>(a) == b;
}

std::string
SimResults::summary() const
{
    std::string out;
    out += "workload:            " + workload + "\n";
    out += "policy:              " + toString(policy) +
           (prefetch ? " + next-line prefetch" : "") + "\n";
    out += "instructions:        " + formatWithCommas(instructions) + "\n";
    out += "total ISPI:          " + formatFixed(ispi(), 4) + "\n";
    for (PenaltyKind kind : allPenaltyKinds()) {
        std::string name = "  " + toString(kind) + ":";
        if (name.size() < 21)
            name += std::string(21 - name.size(), ' ');
        out += name + formatFixed(ispiOf(kind), 4) + "\n";
    }
    out += "miss rate:           " + formatFixed(missRatePercent(), 2) +
           "% (" + formatWithCommas(demandMisses) + " misses)\n";
    out += "wrong-path misses:   " + formatWithCommas(wrongMisses) +
           " (" + formatWithCommas(wrongFills) + " serviced)\n";
    out += "cond accuracy:       " +
           formatFixed(100.0 * condAccuracy(), 2) + "%\n";
    out += "misfetches:          " + formatWithCommas(misfetches) + "\n";
    out += "memory transactions: " +
           formatWithCommas(memoryTransactions()) + "\n";
    if (prefetchesIssued > 0) {
        out += "prefetches issued:   " +
               formatWithCommas(prefetchesIssued) + "\n";
    }
    return out;
}

namespace {

/**
 * Call fn(name, value, description, is_counter) for every statistic of
 * @p r in dump order: the frontend block, then per group the
 * counter-table rows followed by the group's derived values. Shared by
 * statsDump() and visitStats() so the two can never disagree about
 * what stats exist.
 */
template <typename Fn>
void
forEachStat(const SimResults &r, Fn &&fn)
{
    auto tableRows = [&r, &fn](const std::string &group) {
        for (const CounterField &field : kCounterFields) {
            if (group == field.group) {
                fn("sim." + group + "." + field.key,
                   static_cast<double>(r.*field.member), field.description,
                   true);
            }
        }
    };

    fn("sim.frontend.instructions", static_cast<double>(r.instructions),
       "correct-path instructions", true);
    fn("sim.frontend.slots", static_cast<double>(r.finalSlot),
       "total issue slots elapsed", true);
    fn("sim.frontend.ispi", r.ispi(), "issue slots lost per instruction",
       false);
    for (PenaltyKind kind : allPenaltyKinds()) {
        fn("sim.frontend.ispi_" + toString(kind), r.ispiOf(kind),
           "component ISPI", false);
    }

    tableRows("branch");
    fn("sim.branch.cond_accuracy", r.condAccuracy(),
       "PHT direction accuracy", false);

    tableRows("icache");
    fn("sim.icache.miss_rate", r.missRatePercent() / 100.0,
       "misses per instruction", false);
    fn("sim.icache.memory_transactions",
       static_cast<double>(r.memoryTransactions()),
       "fills + wrong-path fills + prefetches", false);
}

} // namespace

std::string
SimResults::statsDump() const
{
    std::string out;
    forEachStat(*this, [&out](const std::string &name, double value,
                              const char *description, bool) {
        std::string value_text;
        if (value == static_cast<double>(static_cast<uint64_t>(value)))
            value_text = std::to_string(static_cast<uint64_t>(value));
        else
            value_text = formatFixed(value, 6);
        out += name;
        if (name.size() < 40)
            out += std::string(40 - name.size(), ' ');
        out += " " + value_text + "   # " + description + "\n";
    });
    return out;
}

void
SimResults::visitStats(
    const std::function<void(const std::string &, const std::string &,
                             bool)> &fn) const
{
    forEachStat(*this, [&fn](const std::string &name, double,
                             const char *description, bool isCounter) {
        fn(name, description, isCounter);
    });
}

} // namespace specfetch
