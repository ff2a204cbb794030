/**
 * @file
 * Unit tests for the correctness-audit subsystem: seeded violations
 * must be caught, clean contexts must pass, and the violation report
 * must carry the schema-v1 shape CI archives.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "adaptive/adaptive_log.hh"
#include "cache/bus.hh"
#include "cache/icache.hh"
#include "cache/line_buffer.hh"
#include "check/invariant.hh"
#include "core/config.hh"
#include "core/miss_classifier.hh"
#include "core/results.hh"
#include "report/json.hh"
#include "temp_path.hh"

namespace specfetch {
namespace {

// ---- CheckLevel parsing ----------------------------------------------

TEST(CheckLevel, RoundTripsNames)
{
    for (CheckLevel level :
         {CheckLevel::Off, CheckLevel::Cheap, CheckLevel::Paranoid}) {
        CheckLevel parsed;
        ASSERT_TRUE(parseCheckLevel(toString(level), parsed));
        EXPECT_EQ(parsed, level);
    }
}

TEST(CheckLevel, ParsesCaseInsensitively)
{
    CheckLevel parsed;
    ASSERT_TRUE(parseCheckLevel("PARANOID", parsed));
    EXPECT_EQ(parsed, CheckLevel::Paranoid);
    ASSERT_TRUE(parseCheckLevel("none", parsed));
    EXPECT_EQ(parsed, CheckLevel::Off);
}

TEST(CheckLevel, RejectsUnknownNames)
{
    CheckLevel parsed;
    EXPECT_FALSE(parseCheckLevel("medium", parsed));
    EXPECT_FALSE(parseCheckLevel("", parsed));
}

// ---- Auditor mechanics -----------------------------------------------

/** A context whose identities all hold (5 instructions, no stalls). */
AuditContext
cleanContext(SimConfig &config, SimResults &stats)
{
    stats = SimResults{};
    stats.instructions = 5;
    AuditContext ctx;
    ctx.config = &config;
    ctx.stats = &stats;
    ctx.now = 5;
    ctx.statsBaseSlot = 0;
    return ctx;
}

TEST(InvariantAuditor, CleanContextProducesNoViolations)
{
    SimConfig config;
    SimResults stats;
    AuditContext ctx = cleanContext(config, stats);

    InvariantAuditor auditor = InvariantAuditor::standard(CheckLevel::Cheap);
    EXPECT_EQ(auditor.runChecks(ctx), 0u);
    EXPECT_TRUE(auditor.clean());
}

TEST(InvariantAuditor, CatchesSeededIspiViolation)
{
    SimConfig config;
    SimResults stats;
    AuditContext ctx = cleanContext(config, stats);
    // Lose three slots without charging any penalty component: the
    // decomposition no longer reproduces the slot clock.
    ctx.now = 8;

    InvariantAuditor auditor = InvariantAuditor::standard(CheckLevel::Cheap);
    ASSERT_EQ(auditor.runChecks(ctx), 1u);
    EXPECT_EQ(auditor.violations().front().invariant, "ispi-decomposition");
}

TEST(InvariantAuditor, CatchesSeededBusViolation)
{
    SimConfig config;
    SimResults stats;
    AuditContext ctx = cleanContext(config, stats);
    MemoryBus bus(1);
    bus.acquire(0, 20);    // one transaction nothing accounts for
    ctx.bus = &bus;

    InvariantAuditor auditor = InvariantAuditor::standard(CheckLevel::Cheap);
    ASSERT_EQ(auditor.runChecks(ctx), 1u);
    EXPECT_EQ(auditor.violations().front().invariant, "bus-accounting");
}

// ---- Adaptive epoch tiling -------------------------------------------

/** Violations of adaptive-epoch-tiling alone in @p ctx. */
size_t
tilingViolations(const AuditContext &ctx)
{
    InvariantAuditor auditor = InvariantAuditor::standard(CheckLevel::Cheap);
    auditor.runChecks(ctx);
    size_t count = 0;
    for (const InvariantViolation &violation : auditor.violations())
        count += violation.invariant == "adaptive-epoch-tiling";
    return count;
}

TEST(InvariantAuditor, AdaptiveTilingAcceptsAContiguousChoiceLog)
{
    SimResults stats;
    stats.instructions = 250;
    AdaptiveLog log;
    log.interval = 100;
    log.basePolicy = FetchPolicy::Resume;
    log.choices = {{0, FetchPolicy::Resume, 0, 100},
                   {1, FetchPolicy::Optimistic, 100, 200},
                   {2, FetchPolicy::Optimistic, 200, 250}};
    log.switches = 1;

    AuditContext ctx;
    ctx.stats = &stats;
    ctx.adaptiveLog = &log;
    ctx.endOfRun = true;
    EXPECT_EQ(tilingViolations(ctx), 0u);

    // Mid-run checkpoints skip the end-of-run coverage clause.
    ctx.endOfRun = false;
    log.choices.back().lastInstruction = 230;
    EXPECT_EQ(tilingViolations(ctx), 0u);
}

TEST(InvariantAuditor, AdaptiveTilingCatchesSeededDefects)
{
    SimResults stats;
    stats.instructions = 300;
    AdaptiveLog good;
    good.interval = 100;
    good.basePolicy = FetchPolicy::Resume;
    good.choices = {{0, FetchPolicy::Resume, 0, 100},
                    {1, FetchPolicy::Resume, 100, 200},
                    {2, FetchPolicy::Resume, 200, 300}};
    good.switches = 0;

    auto check = [&stats](const AdaptiveLog &log) {
        AuditContext ctx;
        ctx.stats = &stats;
        ctx.adaptiveLog = &log;
        ctx.endOfRun = true;
        return tilingViolations(ctx);
    };
    ASSERT_EQ(check(good), 0u);

    AdaptiveLog gapped = good;     // window starts off the epoch grid
    gapped.choices[1].firstInstruction = 150;
    EXPECT_GE(check(gapped), 1u);

    AdaptiveLog short_epoch = good;   // non-final epoch cut short
    short_epoch.choices[1].lastInstruction = 150;
    EXPECT_GE(check(short_epoch), 1u);

    AdaptiveLog miscounted = good;    // switch counter disagrees
    miscounted.switches = 2;
    EXPECT_EQ(check(miscounted), 1u);

    AdaptiveLog uncovered = good;     // log ends before the run does
    uncovered.choices.pop_back();
    EXPECT_EQ(check(uncovered), 1u);

    // A run without adaptive selection is skipped, never flagged.
    AdaptiveLog off;
    EXPECT_EQ(check(off), 0u);
}

TEST(InvariantAuditor, LevelGatesParanoidInvariants)
{
    // A resume-buffer entry aliasing a resident line violates
    // buffer-no-alias — but only a Paranoid auditor looks.
    SimConfig config;
    SimResults stats;
    AuditContext ctx = cleanContext(config, stats);

    ICache cache;
    cache.insert(0x1000);
    LineBuffer buffer;
    buffer.set(0x1000, 0);
    ctx.icache = &cache;
    ctx.resumeBuffer = &buffer;

    InvariantAuditor cheap = InvariantAuditor::standard(CheckLevel::Cheap);
    EXPECT_EQ(cheap.runChecks(ctx), 0u);

    InvariantAuditor paranoid =
        InvariantAuditor::standard(CheckLevel::Paranoid);
    ASSERT_EQ(paranoid.runChecks(ctx), 1u);
    EXPECT_EQ(paranoid.violations().front().invariant, "buffer-no-alias");
}

TEST(InvariantAuditor, CustomInvariantsRun)
{
    InvariantAuditor auditor(CheckLevel::Cheap);
    auditor.add(Invariant{
        "always-fails", "test", CheckLevel::Cheap,
        [](const AuditContext &, InvariantAuditor &a) {
            a.violation("always-fails", "seeded", JsonValue::object());
        }});

    AuditContext ctx;
    EXPECT_EQ(auditor.runChecks(ctx), 1u);
    EXPECT_FALSE(auditor.clean());
}

// ---- ICache structural audit -----------------------------------------

TEST(ICacheAudit, FreshAndFilledCachesAreConsistent)
{
    ICache cache;
    EXPECT_TRUE(cache.audit().empty());
    for (Addr line = 0; line < 0x8000; line += 32)
        cache.insert(line);
    EXPECT_TRUE(cache.audit().empty());
}

// ---- Table 4 conservation --------------------------------------------

TEST(AuditClassification, AcceptsConservedTaxonomy)
{
    Classification c;
    c.instructions = 1000;
    c.bothMiss = 40;
    c.specPollute = 10;
    c.specPrefetch = 5;
    c.wrongPath = 20;

    SimResults run;
    run.instructions = 1000;
    run.demandMisses = 50;    // bothMiss + specPollute
    run.wrongFills = 20;      // wrongPath

    InvariantAuditor auditor(CheckLevel::Cheap);
    auditClassification(c, run, c.optimisticMisses(), auditor);
    EXPECT_TRUE(auditor.clean());
}

TEST(AuditClassification, CatchesNonConservedMisses)
{
    Classification c;
    c.instructions = 1000;
    c.bothMiss = 40;
    c.specPollute = 10;
    c.wrongPath = 20;

    SimResults run;
    run.instructions = 1000;
    run.demandMisses = 49;    // one miss unaccounted for
    run.wrongFills = 20;

    InvariantAuditor auditor(CheckLevel::Cheap);
    auditClassification(c, run, c.optimisticMisses(), auditor);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant,
              "table4-conservation");
}

TEST(AuditClassification, CatchesTrafficNumeratorMismatch)
{
    Classification c;
    c.instructions = 100;
    c.bothMiss = 10;

    SimResults run;
    run.instructions = 100;
    run.demandMisses = 10;

    InvariantAuditor auditor(CheckLevel::Cheap);
    auditClassification(c, run, c.optimisticMisses() + 1, auditor);
    ASSERT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().front().invariant,
              "table4-traffic-numerator");
}

// ---- Sweep determinism -----------------------------------------------

TEST(AuditSweepDeterminism, AcceptsIdenticalRuns)
{
    SimResults r;
    r.instructions = 100;
    r.finalSlot = 150;
    std::vector<SimResults> a{r, r}, b{r, r};

    InvariantAuditor auditor(CheckLevel::Paranoid);
    auditSweepDeterminism(a, b, auditor);
    EXPECT_TRUE(auditor.clean());
}

TEST(AuditSweepDeterminism, FlagsEachDivergingIndex)
{
    SimResults r;
    r.instructions = 100;
    std::vector<SimResults> parallel{r, r, r};
    std::vector<SimResults> serial{r, r, r};
    serial[1].instructions = 101;
    serial[2].finalSlot = 1;

    InvariantAuditor auditor(CheckLevel::Paranoid);
    auditSweepDeterminism(parallel, serial, auditor);
    EXPECT_EQ(auditor.violations().size(), 2u);
    EXPECT_EQ(auditor.violations().front().invariant, "sweep-determinism");
}

TEST(AuditSweepDeterminism, FlagsLengthMismatch)
{
    std::vector<SimResults> parallel(2), serial(3);
    InvariantAuditor auditor(CheckLevel::Paranoid);
    auditSweepDeterminism(parallel, serial, auditor);
    EXPECT_EQ(auditor.violations().size(), 1u);
}

// ---- Violation report ------------------------------------------------

TEST(AuditReport, CarriesSchemaManifestAndViolations)
{
    SimConfig config;
    config.checkLevel = CheckLevel::Cheap;

    InvariantAuditor auditor(CheckLevel::Cheap);
    auditor.violation("seeded-check", "seeded detail",
                      JsonValue::object().set(
                          "bad_counter", JsonValue::integer(7)));

    JsonValue report = auditor.reportJson(config);
    ASSERT_NE(report.find("schema_version"), nullptr);
    ASSERT_NE(report.find("record"), nullptr);
    EXPECT_EQ(report.find("record")->asString(), "audit");
    EXPECT_EQ(report.find("check_level")->asString(), "cheap");
    EXPECT_EQ(report.find("violations")->asUint(), 1u);
    // The embedded manifest records that the run was audited.
    ASSERT_NE(report.find("config"), nullptr);
    EXPECT_NE(report.find("config")->find("check_level"), nullptr);

    const JsonValue *list = report.find("violation_list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->elements().size(), 1u);
    const JsonValue &entry = list->elements().front();
    EXPECT_EQ(entry.find("invariant")->asString(), "seeded-check");
    EXPECT_EQ(entry.find("detail")->asString(), "seeded detail");
    EXPECT_EQ(entry.find("counters")->find("bad_counter")->asUint(), 7u);
}

TEST(AuditReport, EmitReportAppendsToEnvNamedFile)
{
    std::string path = test::tempPath("audit_report.jsonl");
    std::remove(path.c_str());
    ASSERT_EQ(setenv(InvariantAuditor::kReportPathEnv, path.c_str(), 1), 0);

    SimConfig config;
    InvariantAuditor auditor(CheckLevel::Cheap);
    auditor.violation("seeded-check", "seeded detail", JsonValue::object());
    EXPECT_EQ(auditor.emitReport(config), path);

    unsetenv(InvariantAuditor::kReportPathEnv);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::string error;
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(line, parsed, &error)) << error;
    EXPECT_EQ(parsed.find("record")->asString(), "audit");
    std::remove(path.c_str());
}

} // namespace
} // namespace specfetch
