/**
 * @file
 * Trace-file round-trip tests: the image and the correct-path stream
 * read back from a file must be identical to what was recorded, and a
 * simulation driven from the file must produce the live results.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/fetch_engine.hh"
#include "trace/trace_file.hh"
#include "workload/executor.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

namespace specfetch {
namespace {

class TraceRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = test::tempPath("roundtrip.sftrace");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

Workload
smallWorkload()
{
    WorkloadProfile profile;
    profile.structureSeed = 5;
    profile.numFunctions = 8;
    profile.meanFuncBlocks = 14;
    profile.meanBlockLen = 4.0;
    return buildWorkload(profile);
}

/** Record @p n instructions of @p w and write them with its image. */
TraceSnapshot
writeTrace(const std::string &path, const Workload &w, uint64_t n)
{
    Executor source(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(source, n);
    writeTraceFile(path, w.image, snap);
    return snap;
}

TEST_F(TraceRoundTrip, StreamIsIdentical)
{
    Workload w = smallWorkload();
    const uint64_t n = 100000;
    writeTrace(path, w, n);

    TraceFile trace = readTraceFile(path);
    Executor live(w.cfg, 42);
    SnapshotReplaySource replay(trace.snapshot);
    DynInst expected, got;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(live.next(expected));
        if (i == 0) {
            EXPECT_EQ(trace.snapshot.startPc(), expected.pc);
        }
        ASSERT_TRUE(replay.next(got)) << "record " << i;
        ASSERT_EQ(got.pc, expected.pc) << "record " << i;
        ASSERT_EQ(got.cls, expected.cls) << "record " << i;
        ASSERT_EQ(got.taken, expected.taken) << "record " << i;
        if (isControl(got.cls)) {
            ASSERT_EQ(got.target, expected.target) << i;
        }
    }
    EXPECT_FALSE(replay.next(got));
}

TEST_F(TraceRoundTrip, ImageIsIdentical)
{
    Workload w = smallWorkload();
    writeTrace(path, w, 1);
    TraceFile trace = readTraceFile(path);
    const ProgramImage &restored = trace.image;
    ASSERT_EQ(restored.size(), w.image.size());
    ASSERT_EQ(restored.base(), w.image.base());
    for (size_t i = 0; i < restored.size(); ++i) {
        ASSERT_EQ(restored[i].cls, w.image[i].cls) << "index " << i;
        if (hasStaticTarget(restored[i].cls)) {
            ASSERT_EQ(restored[i].target, w.image[i].target) << i;
        }
    }
}

TEST_F(TraceRoundTrip, SimulationFromTraceMatchesLive)
{
    Workload w = smallWorkload();
    const uint64_t n = 150000;
    writeTrace(path, w, n);

    SimConfig config;
    config.policy = FetchPolicy::Resume;
    config.instructionBudget = n;

    // Live run.
    Executor live(w.cfg, 42);
    FetchEngine live_engine(config, w.image);
    SimResults live_results = live_engine.runWith(live);

    // Replay run, image and stream both from the file.
    TraceFile trace = readTraceFile(path);
    SnapshotReplaySource replay(trace.snapshot);
    FetchEngine replay_engine(config, trace.image);
    SimResults replay_results = replay_engine.runWith(replay);

    EXPECT_EQ(replay_results, live_results);
}

TEST_F(TraceRoundTrip, WriterCountsRecords)
{
    Workload w = smallWorkload();
    TraceSnapshot written = writeTrace(path, w, 1000);
    TraceFile trace = readTraceFile(path);
    EXPECT_EQ(trace.snapshot.instructionCount(), 1000u);
    EXPECT_EQ(trace.snapshot.contentHash(), written.contentHash());
}

TEST_F(TraceRoundTrip, ReaderRejectsGarbage)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace file at all, sorry", f);
    std::fclose(f);
    EXPECT_THROW(readTraceFile(path), TraceError);
}

TEST(TraceDeath, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/nope.trace"), TraceError);
}

} // namespace
} // namespace specfetch
