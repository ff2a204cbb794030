/**
 * @file
 * planOpen over in-memory store directories (DESIGN.md §15.1): the
 * verdict store_fsck reports for each shape. An error is a refusal;
 * anything open repairs, skips or ignores is a finding (a warning).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/result_store.hh"

using namespace specfetch;

namespace {

std::string
frame(const std::string &json)
{
    JsonValue payload;
    EXPECT_TRUE(JsonValue::parse(json, payload)) << json;
    return frameLine(payload) + "\n";
}

std::string
header(uint64_t generation, uint64_t segment)
{
    return frame("{\"store_header\":{\"schema_version\":1,\"generation\":" +
                 std::to_string(generation) +
                 ",\"segment\":" + std::to_string(segment) + "}}");
}

std::string
data(const std::string &key, uint64_t value = 1)
{
    return frame("{\"key\":\"" + key + "\",\"record\":{\"v\":" +
                 std::to_string(value) + "}}");
}

std::string
clean(uint64_t generation, uint64_t records)
{
    return frame("{\"clean_shutdown\":{\"generation\":" +
                 std::to_string(generation) +
                 ",\"records\":" + std::to_string(records) + "}}");
}

/** Two segments holding a, b and c, closed cleanly. */
StoreFiles
goodStore()
{
    return {{"tail-1-1.log", header(1, 1) + data("a") + data("b")},
            {"tail-1-2.log", header(1, 2) + data("c")},
            {"CLEAN", clean(1, 3)}};
}

std::vector<std::string>
keysOf(const OpenPlan &plan)
{
    std::vector<std::string> keys;
    for (const auto &entry : plan.index)
        keys.push_back(entry.first);
    return keys;
}

/** Whether some finding of @p plan contains @p text. */
bool
found(const OpenPlan &plan, const std::string &text)
{
    for (const std::string &finding : plan.findings) {
        if (finding.find(text) != std::string::npos)
            return true;
    }
    return false;
}

using Keys = std::vector<std::string>;

} // namespace

TEST(StorePlan, CleanStoreHasNoFindings)
{
    OpenPlan plan = planOpen(goodStore());
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_TRUE(plan.findings.empty());
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c"}));
    EXPECT_TRUE(plan.removeClean);
    EXPECT_FALSE(plan.stats.recovered);
    EXPECT_EQ(plan.stats.segmentsLoaded, 2u);
    EXPECT_EQ(plan.nextSegment, 3u);
}

TEST(StorePlan, EmptyDirectoryHasNoFindings)
{
    // A fresh store: nothing to scan, so no recovery either.
    OpenPlan plan = planOpen({});
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_TRUE(plan.findings.empty());
    EXPECT_FALSE(plan.stats.recovered);
    EXPECT_EQ(plan.nextSegment, 1u);
}

TEST(StorePlan, TornTailIsCut)
{
    StoreFiles files = goodStore();
    files.erase("CLEAN");
    const size_t intact = files["tail-1-2.log"].size();
    files["tail-1-2.log"] += "deadbeef {\"key\":\"torn\",\"rec";
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_TRUE(plan.stats.tornTail);
    EXPECT_TRUE(plan.stats.recovered);
    EXPECT_EQ(plan.cuts, (std::vector<std::pair<std::string, size_t>>{
                             {"tail-1-2.log", intact}}));
    EXPECT_TRUE(plan.quarantine.empty());
    EXPECT_TRUE(found(plan, "tail-1-2.log:3: dropping torn tail line"));
    EXPECT_TRUE(found(plan, "no clean-shutdown marker"));
    EXPECT_EQ(plan.findings.size(), 2u);
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c"}));
}

TEST(StorePlan, TornLineInOlderTailIsQuarantined)
{
    // A kill mid-append, then a restart that rotated to a new tail: the
    // stub is an interior frame now, skipped rather than cut.
    StoreFiles files = goodStore();
    files.erase("CLEAN");
    files["tail-1-2.log"] += "deadbeef {\"key\":\"torn\",\"rec";
    files["tail-1-3.log"] = header(1, 3) + data("d");
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_FALSE(plan.stats.tornTail);
    EXPECT_TRUE(plan.cuts.empty());
    EXPECT_EQ(plan.stats.corruptFrames, 1u);
    ASSERT_EQ(plan.quarantine.size(), 1u);
    EXPECT_EQ(*plan.quarantine[0].find("file"),
              JsonValue::string("tail-1-2.log"));
    EXPECT_TRUE(found(plan, "tail-1-2.log:3: quarantining frame"));
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c", "d"}));
}

TEST(StorePlan, CorruptInteriorFrameIsQuarantined)
{
    StoreFiles files = goodStore();
    std::string &tail = files["tail-1-1.log"];
    tail[tail.find('\n') + 20] ^= 0x04; // inside a's frame
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_EQ(plan.stats.corruptFrames, 1u);
    EXPECT_TRUE(found(plan, "tail-1-1.log:2: quarantining frame "
                            "(checksum mismatch)"));
    // CLEAN vouched for a, so it no longer matches.
    EXPECT_TRUE(found(plan, "CLEAN says 3 record(s) but the segments "
                            "hold 2"));
    EXPECT_EQ(keysOf(plan), (Keys{"b", "c"}));
}

TEST(StorePlan, DuplicateKeyKeepsTheFirst)
{
    StoreFiles files = goodStore();
    files["tail-1-2.log"] = header(1, 2) + data("a", 2);
    files["CLEAN"] = clean(1, 2);
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_EQ(plan.findings,
              (Keys{"tail-1-2.log:2: duplicate key a (the first one wins)"}));
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b"}));
    EXPECT_EQ(*plan.index.at("a").find("v"), JsonValue::integer(1));
    EXPECT_FALSE(plan.stats.recovered);
}

TEST(StorePlan, HeaderGenerationMismatchIsQuarantined)
{
    StoreFiles files = goodStore();
    files["tail-1-2.log"] = header(7, 2) + data("c");
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_EQ(plan.stats.corruptFrames, 1u);
    EXPECT_TRUE(found(plan, "tail-1-2.log:1: quarantining frame (header "
                            "names another generation/segment)"));
    EXPECT_EQ(plan.findings.size(), 1u);
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c"}));
}

TEST(StorePlan, HeaderSegmentMismatchIsQuarantined)
{
    StoreFiles files = goodStore();
    files["tail-1-2.log"] = header(1, 1) + data("c");
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_EQ(plan.stats.corruptFrames, 1u);
    EXPECT_TRUE(found(plan, "tail-1-2.log:1: quarantining frame"));
    EXPECT_EQ(plan.findings.size(), 1u);
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c"}));
}

TEST(StorePlan, StraysAreRefusedByName)
{
    for (const char *stray :
         {"base-2.log", "base-1.tmp", "tail-2-1.log", "tail-1-01.log",
          "tail-1-18446744073709551617.log"}) {
        SCOPED_TRACE(stray);
        StoreFiles files = goodStore();
        files[stray] = header(1, 1) + data("a");
        OpenPlan plan = planOpen(files);
        EXPECT_EQ(plan.refusal.rfind(std::string(stray) + " ", 0), 0u)
            << plan.refusal;
        // A refusal plans nothing else.
        EXPECT_TRUE(plan.index.empty());
        EXPECT_TRUE(plan.findings.empty());
        EXPECT_FALSE(plan.removeClean);
    }
}

TEST(StorePlan, UnknownFileIsIgnoredWithAFinding)
{
    StoreFiles files = goodStore();
    files["notes.txt"] = "kept by hand\n";
    files[kStoreQuarantineFile] = "{}\n";
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_EQ(plan.findings, (Keys{"notes.txt: not a store file; ignored"}));
    EXPECT_EQ(keysOf(plan), (Keys{"a", "b", "c"}));
}

TEST(StorePlan, CleanRecordCountMismatchIsARecovery)
{
    StoreFiles files = goodStore();
    files["CLEAN"] = clean(1, 99);
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_TRUE(plan.stats.recovered);
    EXPECT_EQ(plan.findings,
              (Keys{"CLEAN says 99 record(s) but the segments hold 3; "
                    "running a recovery scan"}));
}

TEST(StorePlan, CleanGenerationMismatchIsARecovery)
{
    StoreFiles files = goodStore();
    files["CLEAN"] = clean(2, 3);
    OpenPlan plan = planOpen(files);
    EXPECT_TRUE(plan.refusal.empty());
    EXPECT_TRUE(plan.stats.recovered);
    EXPECT_EQ(plan.findings, (Keys{"CLEAN names generation 2, not 1; "
                                   "running a recovery scan"}));
    EXPECT_TRUE(plan.removeClean);
}
