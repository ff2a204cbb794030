/**
 * @file
 * The correctness-audit subsystem: registered invariants over the
 * simulator's accounting identities and structural state.
 *
 * The paper's headline numbers are accounting identities — ISPI must
 * equal the sum of its six penalty components (Figures 1-4), and the
 * Table 4 miss taxonomy must conserve total misses — so the auditor
 * makes those identities executable: the fetch engine runs the
 * registered checks at end-of-run (CheckLevel::Cheap) and additionally
 * at instruction-count checkpoints (CheckLevel::Paranoid), and
 * classifyMisses / runSweep audit their own outputs the same way.
 *
 * A violation is a simulator bug, never a user error: the run stops
 * with a structured JSON report (schema of src/report/) naming the
 * invariant, the run manifest, and the offending counter values. The
 * report goes to stderr and, when $SPECFETCH_AUDIT_REPORT names a
 * path, to that file (CI uploads it as a failure artifact).
 */

#ifndef SPECFETCH_CHECK_INVARIANT_HH_
#define SPECFETCH_CHECK_INVARIANT_HH_

#include <functional>
#include <string>
#include <vector>

#include "check/check_level.hh"
#include "report/json.hh"

namespace specfetch {

struct AdaptiveLog;
struct SimConfig;
struct SimResults;
struct Classification;
class ICache;
class LineBuffer;
class PrefetchUnit;
class BranchPredictor;
class MemoryBus;

/**
 * Everything the standard invariants inspect, captured by the fetch
 * engine at an instruction boundary. All pointers are borrowed and
 * may be null for contexts built outside the engine (a check that
 * needs a missing component skips silently).
 */
struct AuditContext
{
    const SimConfig *config = nullptr;
    const SimResults *stats = nullptr;

    /** Bus transactions at the last stats reset. */
    uint64_t busBaseTransactions = 0;

    const ICache *icache = nullptr;
    const LineBuffer *resumeBuffer = nullptr;
    const PrefetchUnit *prefetcher = nullptr;
    const BranchPredictor *predictor = nullptr;
    const MemoryBus *bus = nullptr;
    /** Adaptive choice log (null when selection is off). */
    const AdaptiveLog *adaptiveLog = nullptr;

    /** True at end-of-run, false at a paranoid checkpoint. */
    bool endOfRun = false;
};

/** One failed check: which invariant, what happened, which counters. */
struct InvariantViolation
{
    std::string invariant;
    std::string detail;
    /** The offending counter values, as a JSON object. */
    JsonValue counters;
};

/**
 * A registered invariant. @p provenance names the paper table or
 * figure whose numbers the identity protects (DESIGN.md lists all).
 */
struct Invariant
{
    std::string name;
    std::string provenance;
    CheckLevel minLevel = CheckLevel::Cheap;
    std::function<void(const AuditContext &, class InvariantAuditor &)>
        check;
};

/**
 * Runs registered invariants over audit contexts and collects
 * violations. Construct via standard() for the built-in set, or
 * default-construct and add() custom invariants (tests do both).
 */
class InvariantAuditor
{
  public:
    explicit InvariantAuditor(CheckLevel level = CheckLevel::Cheap);

    /** The built-in engine invariants, registered in DESIGN.md order. */
    static InvariantAuditor standard(CheckLevel level);

    void add(Invariant invariant);

    /**
     * Run every registered invariant whose minLevel is enabled at this
     * auditor's level. Returns the number of new violations.
     */
    size_t runChecks(const AuditContext &context);

    /** Record a violation (called by invariant check functions). */
    void violation(const std::string &invariant, const std::string &detail,
                   JsonValue counters);

    bool clean() const { return violationList.empty(); }
    const std::vector<InvariantViolation> &violations() const
    {
        return violationList;
    }
    const std::vector<Invariant> &invariants() const
    {
        return registered;
    }
    CheckLevel level() const { return auditLevel; }

    /**
     * Structured violation report: schema-v1 "audit" record with the
     * run manifest and one entry per violation.
     */
    JsonValue reportJson(const SimConfig &config) const;

    /**
     * Write reportJson to stderr and, when $SPECFETCH_AUDIT_REPORT is
     * set, append it to that path. Returns the file path written
     * (empty when the env var is unset).
     */
    std::string emitReport(const SimConfig &config) const;

    /** Environment variable naming the report file. */
    static constexpr const char *kReportPathEnv = "SPECFETCH_AUDIT_REPORT";

  private:
    CheckLevel auditLevel;
    std::vector<Invariant> registered;
    std::vector<InvariantViolation> violationList;
};

/**
 * Table-4 conservation checks (paper §5.1.1): the taxonomy must
 * conserve the optimistic run's misses, and the traffic ratio's
 * numerator must match the bus transfer counter. Violations land in
 * @p auditor.
 *
 * @param classification   The taxonomy under audit.
 * @param optimistic       The timed Optimistic run it was derived from.
 * @param bus_transactions Bus transfer counter of that run.
 */
void auditClassification(const Classification &classification,
                         const SimResults &optimistic,
                         uint64_t bus_transactions,
                         InvariantAuditor &auditor);

/**
 * Serial-vs-parallel sweep cross-validation (paranoid sweeps): every
 * result of the parallel run must be bit-identical to its serial
 * re-run. Mismatches land in @p auditor, one violation per diverging
 * spec index.
 */
void auditSweepDeterminism(const std::vector<SimResults> &parallel,
                           const std::vector<SimResults> &serial,
                           InvariantAuditor &auditor);

} // namespace specfetch

#endif // SPECFETCH_CHECK_INVARIANT_HH_
