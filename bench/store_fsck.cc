/**
 * @file
 * Offline check of a result store directory (DESIGN.md §15.1): a dry
 * run of ResultStore::open. It reads the files and plans the open with
 * planOpen, the one statement of recovery, but takes no lock and
 * writes nothing.
 *
 *   store_fsck STORE_DIR [--strict] [--json]
 *
 * An error is what open refuses (a file it would misread, named). A
 * warning is what open would repair, skip or ignore: a torn tail line
 * it cuts, a frame it quarantines, a duplicate key, a stray file, or a
 * CLEAN marker that makes the open a recovery scan: missing,
 * disagreeing, or the session-open frame an open leaves until close()
 * (so a store a daemon holds open warns "CLEAN marks a session that is
 * open or ended without close()"). Exit 0 when there is no error and,
 * under --strict, no warning;
 * 1 otherwise. With --json the findings go to stdout as schema-v1 JSONL:
 * one "fsck_finding" record each, then one "fsck_summary" record.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "report/json.hh"
#include "report/record.hh"
#include "serve/result_store.hh"
#include "util/options.hh"

using namespace specfetch;

namespace {

JsonValue
recordHeader(const char *name)
{
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string(name));
    return record;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("store_fsck",
                      "store_fsck STORE_DIR [--strict] [--json]: check a "
                      "result store directory for what open would refuse "
                      "(errors) or repair (warnings)");
    opts.addFlag("strict", "treat warnings as errors");
    opts.addFlag("json", "emit findings as schema-v1 JSONL instead of text");
    if (!opts.parse(argc, argv))
        return 1;
    if (opts.positional().size() != 1) {
        std::fprintf(stderr, "store_fsck: give one STORE_DIR\n");
        return 1;
    }
    const std::string &dir = opts.positional()[0];
    const bool strict = opts.getFlag("strict");

    std::string error;
    std::optional<StoreFiles> files = readStoreFiles(dir, &error);
    if (!files) {
        std::fprintf(stderr, "store_fsck: %s\n", error.c_str());
        return 1;
    }
    const OpenPlan plan = planOpen(*files);
    const size_t errors = plan.refusal.empty() ? 0 : 1;
    const bool ok = errors == 0 && !(strict && !plan.findings.empty());

    if (opts.getFlag("json")) {
        auto finding = [](const char *severity, const std::string &message) {
            JsonValue record = recordHeader("fsck_finding");
            record.set("severity", JsonValue::string(severity))
                .set("message", JsonValue::string(message));
            std::printf("%s\n", record.dump().c_str());
        };
        if (errors)
            finding("error", plan.refusal);
        for (const std::string &message : plan.findings)
            finding("warning", message);
        JsonValue summary = recordHeader("fsck_summary");
        summary.set("records", JsonValue::integer(plan.stats.records))
            .set("errors", JsonValue::integer(errors))
            .set("warnings", JsonValue::integer(plan.findings.size()))
            .set("strict", JsonValue::boolean(strict))
            .set("ok", JsonValue::boolean(ok));
        std::printf("%s\n", summary.dump().c_str());
    } else {
        if (errors)
            std::printf("error: %s\n", plan.refusal.c_str());
        for (const std::string &message : plan.findings)
            std::printf("warning: %s\n", message.c_str());
        std::printf("store_fsck: %llu record(s), %zu error(s), %zu "
                    "warning(s)\n",
                    static_cast<unsigned long long>(plan.stats.records),
                    errors, plan.findings.size());
    }
    return ok ? 0 : 1;
}
