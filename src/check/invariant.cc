#include "check/invariant.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "adaptive/adaptive_log.hh"
#include "branch/predictor.hh"
#include "cache/bus.hh"
#include "cache/icache.hh"
#include "cache/line_buffer.hh"
#include "cache/prefetch_unit.hh"
#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "report/record.hh"
#include "util/string_utils.hh"

namespace specfetch {

std::string
toString(CheckLevel level)
{
    switch (level) {
      case CheckLevel::Off:      return "off";
      case CheckLevel::Cheap:    return "cheap";
      case CheckLevel::Paranoid: return "paranoid";
    }
    return "unknown";
}

bool
parseCheckLevel(const std::string &text, CheckLevel &out)
{
    std::string lower = toLower(text);
    if (lower == "off" || lower == "none") {
        out = CheckLevel::Off;
        return true;
    }
    if (lower == "cheap") {
        out = CheckLevel::Cheap;
        return true;
    }
    if (lower == "paranoid") {
        out = CheckLevel::Paranoid;
        return true;
    }
    return false;
}

InvariantAuditor::InvariantAuditor(CheckLevel level) : auditLevel(level) {}

void
InvariantAuditor::add(Invariant invariant)
{
    registered.push_back(std::move(invariant));
}

size_t
InvariantAuditor::runChecks(const AuditContext &context)
{
    size_t before = violationList.size();
    for (const Invariant &invariant : registered) {
        if (invariant.minLevel <= auditLevel && invariant.check)
            invariant.check(context, *this);
    }
    return violationList.size() - before;
}

void
InvariantAuditor::violation(const std::string &invariant,
                            const std::string &detail, JsonValue counters)
{
    violationList.push_back(
        InvariantViolation{invariant, detail, std::move(counters)});
}

JsonValue
InvariantAuditor::reportJson(const SimConfig &config) const
{
    JsonValue entries = JsonValue::array();
    for (const InvariantViolation &v : violationList) {
        JsonValue entry = JsonValue::object();
        entry.set("invariant", JsonValue::string(v.invariant))
            .set("detail", JsonValue::string(v.detail))
            .set("counters", v.counters);
        entries.push(std::move(entry));
    }

    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string("audit"))
        .set("check_level", JsonValue::string(specfetch::toString(auditLevel)))
        .set("violations", JsonValue::integer(violationList.size()))
        .set("config", toJson(config))
        .set("violation_list", std::move(entries));
    return record;
}

std::string
InvariantAuditor::emitReport(const SimConfig &config) const
{
    std::string serialized = reportJson(config).dump();
    std::fprintf(stderr, "invariant-audit: %s\n", serialized.c_str());

    const char *path = std::getenv(kReportPathEnv);
    if (!path || !*path)
        return "";
    std::ofstream out(path, std::ios::app);
    if (out)
        out << serialized << '\n';
    return path;
}

namespace {

JsonValue
counterObject(
    std::initializer_list<std::pair<const char *, uint64_t>> values)
{
    JsonValue out = JsonValue::object();
    for (const auto &[name, value] : values)
        out.set(name, JsonValue::integer(value));
    return out;
}

/**
 * ISPI decomposition (Figures 1-4): every slot since the stats reset
 * is either an issued instruction or a slot charged to exactly one
 * penalty component, so the component sum must reproduce the slot
 * clock (finalSlot, which the engine counts from the stats reset).
 * This is the identity behind "total ISPI = stacked bars".
 */
void
checkIspiDecomposition(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.stats)
        return;
    uint64_t lost = ctx.stats->penalty.totalSlots();
    uint64_t elapsed = static_cast<uint64_t>(ctx.stats->finalSlot);
    if (ctx.stats->instructions + lost == elapsed)
        return;
    auditor.violation(
        "ispi-decomposition",
        "instructions + penalty slots must equal the elapsed slot clock",
        counterObject({{"instructions", ctx.stats->instructions},
                       {"penalty_slots_total", lost},
                       {"elapsed_slots", elapsed}}));
}

/**
 * Bus accounting (Table 7 traffic): every bus transaction since the
 * stats reset is a demand fill, a wrong-path fill, or a prefetch.
 */
void
checkBusAccounting(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.stats || !ctx.bus)
        return;
    uint64_t bus_seen =
        ctx.bus->transactions.value() - ctx.busBaseTransactions;
    if (bus_seen == ctx.stats->memoryTransactions())
        return;
    auditor.violation(
        "bus-accounting",
        "bus transactions must equal demand + wrong-path fills + prefetches",
        counterObject({{"bus_transactions", bus_seen},
                       {"demand_fills", ctx.stats->demandFills},
                       {"wrong_fills", ctx.stats->wrongFills},
                       {"prefetches_issued", ctx.stats->prefetchesIssued}}));
}

/** Tag-store consistency: defer to the array's own structural audit. */
void
checkIcacheConsistency(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.icache)
        return;
    for (const std::string &problem : ctx.icache->audit()) {
        auditor.violation("icache-consistency", problem,
                          counterObject({}));
    }
}

/** RAS occupancy can never exceed the configured depth. */
void
checkRasBound(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.predictor || !ctx.predictor->hasRas())
        return;
    const ReturnAddressStack &ras = ctx.predictor->ras();
    if (ras.size() <= ras.depth())
        return;
    auditor.violation(
        "ras-depth-bound",
        "return-address-stack occupancy exceeds its configured depth",
        counterObject({{"occupancy", ras.size()}, {"depth", ras.depth()}}));
}

/**
 * Fill buffers hold *missing* lines: a resume-buffer, prefetch-buffer
 * or stream-head entry must never alias a line resident in the array
 * (that would double-count capacity and corrupt the miss taxonomy).
 */
void
checkBufferAliasing(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.icache)
        return;
    auto aliased = [&](const char *which, Addr line) {
        auditor.violation(
            "buffer-no-alias",
            std::string(which) + " entry aliases a resident cache line",
            counterObject({{"line_addr", line}}));
    };
    if (ctx.resumeBuffer && ctx.resumeBuffer->valid() &&
        ctx.icache->contains(ctx.resumeBuffer->lineAddr())) {
        aliased("resume buffer", ctx.resumeBuffer->lineAddr());
    }
    if (ctx.prefetcher && ctx.prefetcher->buffer().valid()) {
        Addr line = ctx.prefetcher->buffer().lineAddr();
        if (ctx.icache->contains(line))
            aliased("prefetch buffer", line);
        if (ctx.resumeBuffer && ctx.resumeBuffer->valid() &&
            ctx.resumeBuffer->lineAddr() == line) {
            auditor.violation(
                "buffer-no-alias",
                "prefetch buffer duplicates the resume buffer entry",
                counterObject({{"line_addr", line}}));
        }
    }
}

/**
 * Adaptive switching contract (DESIGN.md §12): policy switches happen
 * only on epoch boundaries, so the choice log's epoch ids must run
 * 0..n-1, every window must start where the previous ended on an
 * exact interval multiple, every non-final window must span exactly
 * one interval, the applied-switch counter must match the log, and at
 * end-of-run the windows must tile the measured region — the interval
 * instruction counts sum to the retired total.
 */
void
checkAdaptiveEpochTiling(const AuditContext &ctx, InvariantAuditor &auditor)
{
    if (!ctx.adaptiveLog || !ctx.adaptiveLog->enabled() ||
        ctx.adaptiveLog->choices.empty()) {
        return;
    }
    const AdaptiveLog &log = *ctx.adaptiveLog;
    auto bad = [&](const char *detail, const AdaptiveChoice &choice) {
        auditor.violation(
            "adaptive-epoch-tiling", detail,
            counterObject({{"epoch", choice.epoch},
                           {"first_instruction", choice.firstInstruction},
                           {"last_instruction", choice.lastInstruction},
                           {"interval", log.interval}}));
    };

    uint64_t expected_first = 0;
    uint64_t switches = 0;
    for (size_t i = 0; i < log.choices.size(); ++i) {
        const AdaptiveChoice &choice = log.choices[i];
        if (choice.epoch != i)
            bad("choice epoch ids must run 0..n-1 in order", choice);
        if (choice.firstInstruction != expected_first)
            bad("choice window must start where the previous ended",
                choice);
        if (choice.firstInstruction % log.interval != 0)
            bad("policy switch off the epoch-boundary grid", choice);
        bool final_choice = i + 1 == log.choices.size();
        if (!final_choice &&
            choice.lastInstruction - choice.firstInstruction !=
                log.interval) {
            bad("non-final epoch must span exactly one interval", choice);
        }
        if (choice.lastInstruction < choice.firstInstruction)
            bad("choice window runs backwards", choice);
        if (i > 0 && choice.policy != log.choices[i - 1].policy)
            ++switches;
        expected_first = choice.lastInstruction;
    }
    // A switch applied at the most recent boundary is not derivable
    // from the log until the epoch running under the new policy
    // closes, so a mid-run audit may see the counter one ahead.
    bool pendingSwitch = !ctx.endOfRun && log.switches == switches + 1;
    if (switches != log.switches && !pendingSwitch) {
        auditor.violation(
            "adaptive-epoch-tiling",
            "applied-switch counter disagrees with the choice log",
            counterObject({{"counted", switches},
                           {"logged", log.switches}}));
    }
    // Mid-run (paranoid checkpoints) the current epoch is still open;
    // only at end-of-run must the log cover every retired instruction.
    if (ctx.endOfRun && ctx.stats &&
        expected_first != ctx.stats->instructions) {
        auditor.violation(
            "adaptive-epoch-tiling",
            "choice windows must tile the run exactly (sum of interval "
            "instruction counts == retired total)",
            counterObject({{"covered", expected_first},
                           {"retired", ctx.stats->instructions}}));
    }
}

} // namespace

InvariantAuditor
InvariantAuditor::standard(CheckLevel level)
{
    InvariantAuditor auditor(level);
    auditor.add(Invariant{"ispi-decomposition", "Figures 1-4",
                          CheckLevel::Cheap, checkIspiDecomposition});
    auditor.add(Invariant{"bus-accounting", "Table 7 (traffic)",
                          CheckLevel::Cheap, checkBusAccounting});
    auditor.add(Invariant{"icache-consistency", "§4.1 cache geometry",
                          CheckLevel::Cheap, checkIcacheConsistency});
    auditor.add(Invariant{"ras-depth-bound", "RAS extension",
                          CheckLevel::Cheap, checkRasBound});
    auditor.add(Invariant{"adaptive-epoch-tiling", "DESIGN.md §12",
                          CheckLevel::Cheap, checkAdaptiveEpochTiling});
    auditor.add(Invariant{"buffer-no-alias", "§3 resume/prefetch buffers",
                          CheckLevel::Paranoid, checkBufferAliasing});
    return auditor;
}

void
auditClassification(const Classification &classification,
                    const SimResults &optimistic,
                    uint64_t bus_transactions, InvariantAuditor &auditor)
{
    const Classification &c = classification;

    if (c.instructions != optimistic.instructions) {
        auditor.violation(
            "table4-conservation",
            "classification instruction count diverges from the run",
            counterObject({{"classified", c.instructions},
                           {"run", optimistic.instructions}}));
    }

    // Optimistic-path misses partition into Both Miss + Spec Pollute.
    if (c.bothMiss + c.specPollute != optimistic.demandMisses) {
        auditor.violation(
            "table4-conservation",
            "both_miss + spec_pollute must equal the run's demand misses",
            counterObject({{"both_miss", c.bothMiss},
                           {"spec_pollute", c.specPollute},
                           {"demand_misses", optimistic.demandMisses}}));
    }

    // Wrong Path counts exactly the serviced wrong-path fills.
    if (c.wrongPath != optimistic.wrongFills) {
        auditor.violation(
            "table4-conservation",
            "wrong_path must equal the run's serviced wrong-path fills",
            counterObject({{"wrong_path", c.wrongPath},
                           {"wrong_fills", optimistic.wrongFills}}));
    }

    // Traffic ratio numerator: optimistic misses = all bus transfers
    // of the (prefetch-free) classification run.
    if (c.optimisticMisses() != bus_transactions) {
        auditor.violation(
            "table4-traffic-numerator",
            "optimistic misses must match the bus transfer counter",
            counterObject({{"optimistic_misses", c.optimisticMisses()},
                           {"bus_transactions", bus_transactions}}));
    }
}

void
auditSweepDeterminism(const std::vector<SimResults> &parallel,
                      const std::vector<SimResults> &serial,
                      InvariantAuditor &auditor)
{
    if (parallel.size() != serial.size()) {
        auditor.violation(
            "sweep-determinism",
            "parallel and serial sweeps returned different run counts",
            JsonValue::object()
                .set("parallel", JsonValue::integer(parallel.size()))
                .set("serial", JsonValue::integer(serial.size())));
        return;
    }
    for (size_t i = 0; i < parallel.size(); ++i) {
        if (parallel[i] == serial[i])
            continue;
        JsonValue counters = JsonValue::object();
        counters.set("spec_index", JsonValue::integer(i))
            .set("parallel", toJson(parallel[i]))
            .set("serial", toJson(serial[i]));
        auditor.violation(
            "sweep-determinism",
            "parallel sweep result diverges from its serial re-run",
            std::move(counters));
    }
}

} // namespace specfetch
