/**
 * @file
 * Untrusted-input hardening tests. Trace files come from outside the
 * process, so every malformed shape — truncation, bad magic, lying
 * size fields, invalid classes, misaligned addresses — must surface
 * as a typed TraceError naming the damage, never as UB, a hang or a
 * giant allocation. A file's stream section is a serialized
 * TraceSnapshot, so the same contract covers deserialize() and the
 * in-memory integrity checks the guarded sweep leans on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/fetch_engine.hh"
#include "trace/trace_file.hh"
#include "util/checksum.hh"
#include "util/random.hh"
#include "workload/executor.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

namespace specfetch {
namespace {

using Record = TraceSnapshot::ControlRecord;

/** Serialized snapshot header: magic, version, start PC, instruction
 *  count, record count, digest. */
constexpr size_t kStreamHeaderBytes = 40;

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/** A syntactically valid header for an image of @p count records. */
std::vector<uint8_t>
header(uint64_t base, uint64_t count, uint32_t magic = kTraceMagic,
       uint32_t version = kTraceVersion)
{
    std::vector<uint8_t> bytes;
    putU32(bytes, magic);
    putU32(bytes, version);
    putU64(bytes, base);
    putU64(bytes, count);
    return bytes;
}

/**
 * Re-stamp the digest of the serialized stream at @p offset from its
 * (possibly damaged) start PC, count and payload, the way record()
 * stamps it, so damage gets past the digest check and reaches
 * validate().
 */
void
restamp(std::vector<uint8_t> &bytes, size_t offset)
{
    if (bytes.size() < offset + kStreamHeaderBytes)
        return;
    uint8_t *stream = bytes.data() + offset;
    uint64_t start, count;
    std::memcpy(&start, stream + 8, sizeof(start));
    std::memcpy(&count, stream + 16, sizeof(count));
    uint64_t digest =
        hash64(stream + kStreamHeaderBytes,
               bytes.size() - offset - kStreamHeaderBytes,
               hash64(&start, sizeof(start), count));
    std::memcpy(stream + 32, &digest, sizeof(digest));
}

/**
 * An image-less trace whose stream holds @p recs and promises @p count
 * instructions, its digest stamped so the records reach validate().
 */
std::vector<uint8_t>
streamOnly(Addr start, uint64_t count, const std::vector<Record> &recs)
{
    std::vector<uint8_t> bytes = header(0x1000, 0);
    const size_t stream_at = bytes.size();
    putU32(bytes, TraceSnapshot::kMagic);
    putU32(bytes, TraceSnapshot::kVersion);
    putU64(bytes, start);
    putU64(bytes, count);
    putU64(bytes, recs.size());
    putU64(bytes, 0);
    const auto *raw = reinterpret_cast<const uint8_t *>(recs.data());
    bytes.insert(bytes.end(), raw, raw + recs.size() * sizeof(Record));
    restamp(bytes, stream_at);
    return bytes;
}

constexpr uint8_t
classByte(InstClass c)
{
    return static_cast<uint8_t>(c);
}

/** The TraceError message parsing @p bytes produces ("" when they
 *  parse). */
std::string
loadError(const std::vector<uint8_t> &bytes)
{
    try {
        parseTraceFile(bytes);
    } catch (const TraceError &e) {
        return e.what();
    }
    return "";
}

class CorruptTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = test::tempPath("corrupt.sftrace");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(CorruptTrace, TruncatedHeaderIsNamed)
{
    std::vector<uint8_t> bytes;
    putU32(bytes, kTraceMagic);
    putU32(bytes, kTraceVersion);
    bytes.push_back(0x99);    // 9 bytes: dies inside the base field
    EXPECT_NE(loadError(bytes).find("truncated trace header"),
              std::string::npos);
}

TEST_F(CorruptTrace, EmptyFileIsATruncatedHeader)
{
    // Through the file reader, whose errors name the file.
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::string error;
    try {
        readTraceFile(path);
    } catch (const TraceError &e) {
        error = e.what();
    }
    EXPECT_NE(error.find("truncated trace header"), std::string::npos)
        << error;
    EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST_F(CorruptTrace, BadMagicIsNamed)
{
    EXPECT_NE(loadError(header(0x1000, 0, /*magic=*/0x4B4F4F42))
                  .find("not a specfetch trace"),
              std::string::npos);
}

TEST_F(CorruptTrace, UnsupportedVersionIsNamed)
{
    // Version 1 files (a varint stream) are refused too.
    for (uint32_t version : {1u, 99u}) {
        std::string error =
            loadError(header(0x1000, 0, kTraceMagic, version));
        EXPECT_NE(error.find("version " + std::to_string(version)),
                  std::string::npos)
            << error;
    }
}

TEST_F(CorruptTrace, LyingImageCountIsRefusedBeforeAllocation)
{
    // A 24-byte file claiming a ~1-TiB image: the reader must refuse
    // from the file size alone (this test would OOM otherwise).
    std::string error = loadError(header(0x1000, uint64_t(1) << 38));
    EXPECT_NE(error.find("exceeds what"), std::string::npos) << error;
}

TEST_F(CorruptTrace, ImageRangeOverflowIsRefused)
{
    std::vector<uint8_t> bytes = header(~uint64_t(0) - 15, /*count=*/8);
    bytes.insert(bytes.end(), 8, 0x00);    // count passes the size check
    EXPECT_NE(loadError(bytes).find("overflows the address space"),
              std::string::npos);
}

TEST_F(CorruptTrace, TruncatedImageIsNamed)
{
    // One CondBranch image record whose target is missing: the count
    // passes the size check but the image bytes run out early.
    std::vector<uint8_t> bytes = header(0x1000, /*count=*/1);
    bytes.push_back(classByte(InstClass::CondBranch));
    EXPECT_NE(loadError(bytes).find("truncated trace image"),
              std::string::npos);
}

TEST_F(CorruptTrace, InvalidImageClassIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, /*count=*/1);
    bytes.push_back(0x07);    // one past IndirectCall
    std::string error = loadError(bytes);
    EXPECT_NE(error.find("invalid instruction class"), std::string::npos)
        << error;
}

TEST_F(CorruptTrace, ZeroLengthPlainRunIsNamed)
{
    std::string error = loadError(streamOnly(
        0x1000, 3,
        {Record{0, 3, TraceSnapshot::kRunOnly, 0, 0},
         Record{0, 0, TraceSnapshot::kRunOnly, 0, 0}}));
    EXPECT_NE(error.find("record 1 is a run of zero plains"),
              std::string::npos)
        << error;
}

TEST_F(CorruptTrace, UnknownStreamTagIsNamed)
{
    // Neither an instruction class nor the run-only marker.
    std::string error =
        loadError(streamOnly(0x1000, 1, {Record{0x1000, 0, 0x80, 1, 0}}));
    EXPECT_NE(error.find("invalid class 128"), std::string::npos) << error;
}

TEST_F(CorruptTrace, InvalidControlClassIsNamed)
{
    // One past IndirectCall, and Plain, which is no control class.
    for (uint8_t wire : {uint8_t{7}, classByte(InstClass::Plain)}) {
        std::string error = loadError(
            streamOnly(0x1000, 1, {Record{0x1000, 0, wire, 1, 0}}));
        EXPECT_NE(error.find("invalid class " + std::to_string(wire)),
                  std::string::npos)
            << error;
    }
}

TEST_F(CorruptTrace, TruncatedControlRecordIsNamed)
{
    // The stream ends one control record short of the instructions it
    // promises; re-stamped, so only the population check can see it.
    std::string error = loadError(streamOnly(
        0x1000, 8, {Record{0x2000, 3, classByte(InstClass::Jump), 1, 0}}));
    EXPECT_NE(error.find("population 4 != instruction count 8"),
              std::string::npos)
        << error;
}

TEST_F(CorruptTrace, MisalignedImageBaseIsNamed)
{
    std::string error = loadError(header(0x1002, 0));
    EXPECT_NE(error.find("image base 0x1002 misaligned"), std::string::npos)
        << error;
}

TEST_F(CorruptTrace, MisalignedStartPcIsNamed)
{
    std::string error = loadError(streamOnly(
        0x1002, 1, {Record{0, 1, TraceSnapshot::kRunOnly, 0, 0}}));
    EXPECT_NE(error.find("start pc 0x1002 misaligned"), std::string::npos)
        << error;
}

TEST_F(CorruptTrace, MisalignedTargetIsNamed)
{
    // A static target in the image...
    std::vector<uint8_t> bytes = header(0x1000, 1);
    bytes.push_back(classByte(InstClass::Jump));
    putU64(bytes, 0x1006);
    std::string error = loadError(bytes);
    EXPECT_NE(error.find("record 0 target 0x1006 misaligned"),
              std::string::npos)
        << error;

    // ...and a dynamic target in the stream, taken or not (the engine
    // walks a not-taken conditional's target as a misfetch path).
    for (uint8_t taken : {uint8_t{0}, uint8_t{1}}) {
        error = loadError(streamOnly(
            0x1000, 1,
            {Record{0x1006, 0, classByte(InstClass::CondBranch), taken, 0}}));
        EXPECT_NE(error.find("target 0x1006 misaligned"), std::string::npos)
            << error;
    }
}

/**
 * Seeded mutation of a real trace file's bytes, parsed in memory:
 * every mutant is either refused with a TraceError or loads and
 * replays to its budget — no crash, no hang, nothing for the
 * sanitizers. Half the seeds re-stamp the stream digest so the damage
 * reaches validate() instead of stopping at the digest check.
 */
TEST_F(CorruptTrace, SeededMutationsAreRefusedOrReplayed)
{
    const Workload &w = *sharedWorkload("cfront");
    constexpr uint64_t kLength = 5'000;
    Executor recorder(w.cfg, 42);
    TraceSnapshot snap = TraceSnapshot::record(recorder, kLength);
    writeTraceFile(path, w.image, snap);
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> clean(std::istreambuf_iterator<char>(in),
                                     {});
    const size_t stream_at =
        clean.size() - kStreamHeaderBytes - snap.byteSize();
    const size_t records_at = stream_at + kStreamHeaderBytes;

    uint64_t refused = 0, replayed = 0;
    for (uint64_t seed = 1; seed <= 2'000; ++seed) {
        Rng rng(seed);
        std::vector<uint8_t> bytes = clean;
        uint64_t mutations = 1 + rng.nextBelow(4);
        for (; mutations > 0 && !bytes.empty(); --mutations) {
            // Half the positions fall anywhere, half in the stream
            // section, whose header fields a uniform pick would rarely
            // hit; record-byte damage lands past the stream header.
            size_t from = rng.nextBelow(2) == 0 ? 0 : stream_at;
            size_t kind = rng.nextBelow(4);
            if (kind == 3)
                from = records_at;
            from = std::min(from, bytes.size() - 1);
            size_t at = from + rng.nextBelow(bytes.size() - from);
            uint64_t value = rng.next64();
            if (kind == 0) {            // bit flip
                bytes[at] =
                    static_cast<uint8_t>(bytes[at] ^ (1u << (value % 8)));
            } else if (kind == 1) {     // truncation
                bytes.resize(at);
            } else if (kind == 2) {     // u64 overwrite, often a small one
                value = value & 1 ? value >> 48 : value;
                for (size_t i = 0; i < 8 && at + i < bytes.size(); ++i)
                    bytes[at + i] = static_cast<uint8_t>(value >> (8 * i));
            } else {                    // one record byte
                bytes[at] = static_cast<uint8_t>(value);
            }
        }
        if (seed % 2 == 0)
            restamp(bytes, stream_at);

        std::optional<TraceFile> trace;
        try {
            trace.emplace(parseTraceFile(bytes));
        } catch (const TraceError &) {
            ++refused;
            continue;
        }
        SimConfig config;
        config.policy = static_cast<FetchPolicy>(seed % 5);
        config.instructionBudget = kLength;
        SnapshotReplaySource source(trace->snapshot);
        FetchEngine engine(config, trace->image);
        SimResults results = engine.runWith(source);
        EXPECT_EQ(results.instructions,
                  std::min(kLength, trace->snapshot.instructionCount()))
            << "seed " << seed;
        ++replayed;
    }
    // Both outcomes must occur, or the mutations test nothing.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(replayed, 0u);
}

// --- TraceSnapshot integrity -------------------------------------------

TraceSnapshot
smallSnapshot(uint64_t length = 20'000)
{
    WorkloadProfile profile;
    profile.structureSeed = 5;
    profile.numFunctions = 8;
    profile.meanFuncBlocks = 14;
    profile.meanBlockLen = 4.0;
    Workload w = buildWorkload(profile);
    Executor source(w.cfg, 42);
    return TraceSnapshot::record(source, length);
}

TEST(SnapshotIntegrity, CleanSnapshotVerifiesAndValidates)
{
    TraceSnapshot snapshot = smallSnapshot();
    ASSERT_GT(snapshot.records().size(), 0u);
    std::string error;
    EXPECT_TRUE(snapshot.verify(&error)) << error;
    EXPECT_TRUE(snapshot.validate(&error)) << error;
}

TEST(SnapshotIntegrity, SingleBitFlipFailsVerifyWithDigests)
{
    TraceSnapshot snapshot = smallSnapshot();
    snapshot.corruptBitForTesting(203);
    std::string error;
    EXPECT_FALSE(snapshot.verify(&error));
    EXPECT_NE(error.find("digest mismatch"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, PopulationDriftFailsValidate)
{
    TraceSnapshot snapshot = smallSnapshot();
    // Bits 64..95 of record 0 are its plainBefore field: flipping one
    // desynchronizes the record population from instructionCount().
    snapshot.corruptBitForTesting(64);
    std::string error;
    EXPECT_FALSE(snapshot.validate(&error));
    EXPECT_NE(error.find("population"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, SerializeDeserializeRoundTrips)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);

    TraceSnapshot restored;
    std::string error;
    ASSERT_TRUE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                           restored, &error))
        << error;
    EXPECT_EQ(restored.startPc(), snapshot.startPc());
    EXPECT_EQ(restored.instructionCount(), snapshot.instructionCount());
    EXPECT_EQ(restored.contentHash(), snapshot.contentHash());
    ASSERT_EQ(restored.records().size(), snapshot.records().size());
    EXPECT_EQ(std::memcmp(restored.records().data(),
                          snapshot.records().data(),
                          snapshot.byteSize()),
              0);
}

/** smallSnapshot() in serialized form. */
std::vector<uint8_t>
serializedSnapshot()
{
    std::vector<uint8_t> bytes;
    smallSnapshot().serialize(bytes);
    return bytes;
}

/** deserialize()'s refusal of the first @p size bytes of @p bytes
 *  ("" when they load). */
std::string
deserializeError(const std::vector<uint8_t> &bytes, size_t size)
{
    TraceSnapshot restored;
    std::string error;
    if (TraceSnapshot::deserialize(bytes.data(), size, restored, &error))
        return "";
    return error;
}

TEST(SnapshotIntegrity, DeserializeRefusesShortInput)
{
    std::string error = deserializeError(serializedSnapshot(), 10);
    EXPECT_NE(error.find("truncated snapshot"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesBadMagic)
{
    std::vector<uint8_t> bytes = serializedSnapshot();
    bytes[0] ^= 0xFF;
    std::string error = deserializeError(bytes, bytes.size());
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesUnsupportedVersion)
{
    std::vector<uint8_t> bytes = serializedSnapshot();
    bytes[4] = 0x63;    // version 99
    std::string error = deserializeError(bytes, bytes.size());
    EXPECT_NE(error.find("version 99"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesTruncatedPayload)
{
    std::vector<uint8_t> bytes = serializedSnapshot();
    // Drop one packed record.
    std::string error = deserializeError(bytes, bytes.size() - 16);
    EXPECT_NE(error.find("promises"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesFlippedPayloadByte)
{
    std::vector<uint8_t> bytes = serializedSnapshot();
    bytes[kStreamHeaderBytes + 3] ^= 0x20;    // one payload byte
    std::string error = deserializeError(bytes, bytes.size());
    EXPECT_NE(error.find("corrupt snapshot payload"), std::string::npos)
        << error;
}

TEST(SnapshotIntegrity, CorruptedReplayIsRefusedNotCrashed)
{
    // The sweep-facing contract: a corrupted shared snapshot is
    // *reported* by verify() so the guarded run can fall back to live
    // execution; nothing throws, nothing aborts.
    TraceSnapshot snapshot = smallSnapshot();
    TraceSnapshot corrupted = snapshot;
    corrupted.corruptBitForTesting(4096);
    EXPECT_FALSE(corrupted.verify());
    EXPECT_TRUE(snapshot.verify());
}

} // namespace
} // namespace specfetch
