/**
 * @file
 * Untrusted-input hardening tests. Trace files come from outside the
 * process, so every malformed shape — truncation, bad magic, lying
 * size fields, invalid class encodings — must surface as a typed
 * TraceError naming the damage, never as UB or a giant allocation.
 * The same contract holds for serialized TraceSnapshots and for the
 * in-memory integrity checks the guarded sweep leans on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

namespace specfetch {
namespace {

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
header(uint64_t base, uint64_t count, uint64_t start_pc,
       uint32_t magic = kTraceMagic, uint32_t version = kTraceVersion)
{
    std::vector<uint8_t> bytes;
    putU32(bytes, magic);
    putU32(bytes, version);
    putU64(bytes, base);
    putU64(bytes, count);
    putU64(bytes, start_pc);
    return bytes;
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

    void
    spill(const std::vector<uint8_t> &bytes)
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    /** The TraceError message produced by opening (and draining). */
    std::string
    openError()
    {
        try {
            TraceReader reader(path);
            DynInst inst;
            while (reader.next(inst)) {
            }
        } catch (const TraceError &e) {
            return e.what();
        }
        return "";
    }

    std::string path;
};

TEST_F(CorruptTrace, TruncatedHeaderIsNamed)
{
    std::vector<uint8_t> bytes;
    putU32(bytes, kTraceMagic);
    putU32(bytes, kTraceVersion);
    bytes.push_back(0x99);    // 9 bytes: dies inside the base field
    spill(bytes);
    EXPECT_NE(openError().find("truncated trace header"),
              std::string::npos);
}

TEST_F(CorruptTrace, EmptyFileIsATruncatedHeader)
{
    spill({});
    EXPECT_NE(openError().find("truncated trace header"),
              std::string::npos);
}

TEST_F(CorruptTrace, BadMagicIsNamed)
{
    spill(header(0x1000, 0, 0x1000, /*magic=*/0x4B4F4F42));
    EXPECT_NE(openError().find("not a specfetch trace"),
              std::string::npos);
}

TEST_F(CorruptTrace, UnsupportedVersionIsNamed)
{
    spill(header(0x1000, 0, 0x1000, kTraceMagic, /*version=*/99));
    std::string error = openError();
    EXPECT_NE(error.find("version 99"), std::string::npos) << error;
}

TEST_F(CorruptTrace, LyingImageCountIsRefusedBeforeAllocation)
{
    // A 32-byte file claiming a ~1-TiB image: the reader must refuse
    // from the file size alone (this test would OOM otherwise).
    spill(header(0x1000, uint64_t(1) << 38, 0x1000));
    std::string error = openError();
    EXPECT_NE(error.find("exceeds what"), std::string::npos) << error;
}

TEST_F(CorruptTrace, ImageRangeOverflowIsRefused)
{
    std::vector<uint8_t> bytes =
        header(~uint64_t(0) - 16, /*count=*/8, 0x1000);
    bytes.insert(bytes.end(), 8, 0x00);    // count passes the size check
    spill(bytes);
    EXPECT_NE(openError().find("overflows the address space"),
              std::string::npos);
}

TEST_F(CorruptTrace, TruncatedImageIsNamed)
{
    // One CondBranch image record whose varint target is missing: the
    // count passes the size check but the image bytes run out early.
    std::vector<uint8_t> bytes = header(0x1000, /*count=*/1, 0x1000);
    bytes.push_back(0x01);    // CondBranch, target truncated away
    spill(bytes);
    EXPECT_NE(openError().find("truncated trace image"),
              std::string::npos);
}

TEST_F(CorruptTrace, InvalidImageClassIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, /*count=*/1, 0x1000);
    bytes.push_back(0x07);    // wire 7: one past IndirectCall
    spill(bytes);
    std::string error = openError();
    EXPECT_NE(error.find("invalid instruction class"), std::string::npos)
        << error;
}

TEST_F(CorruptTrace, ZeroLengthPlainRunIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, 0, 0x1000);
    bytes.push_back(kTagPlainRun);
    bytes.push_back(0x00);    // varint 0: a run of nothing
    spill(bytes);
    EXPECT_NE(openError().find("corrupt plain run"), std::string::npos);
}

TEST_F(CorruptTrace, UnknownStreamTagIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, 0, 0x1000);
    bytes.push_back(0x02);    // neither plain-run nor control
    spill(bytes);
    EXPECT_NE(openError().find("corrupt trace tag"), std::string::npos);
}

TEST_F(CorruptTrace, InvalidControlClassIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, 0, 0x1000);
    bytes.push_back(kTagControl | (0x7 << 1));    // wire class 7
    bytes.push_back(0x01);
    spill(bytes);
    EXPECT_NE(openError().find("invalid instruction class in control"),
              std::string::npos);
}

TEST_F(CorruptTrace, TruncatedControlRecordIsNamed)
{
    std::vector<uint8_t> bytes = header(0x1000, 0, 0x1000);
    bytes.push_back(kTagPlainRun);
    bytes.push_back(0x03);                         // 3 plains, fine
    bytes.push_back(kTagControl | (0x1 << 1));     // then a control...
    bytes.push_back(0x80);                         // ...torn mid-varint
    spill(bytes);
    std::string error = openError();
    EXPECT_NE(error.find("truncated control record"), std::string::npos)
        << error;
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

TEST(SnapshotIntegrity, DeserializeRefusesShortInput)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);

    TraceSnapshot restored;
    std::string error;
    EXPECT_FALSE(TraceSnapshot::deserialize(bytes.data(), 10, restored,
                                            &error));
    EXPECT_NE(error.find("truncated snapshot"), std::string::npos)
        << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesBadMagic)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);
    bytes[0] ^= 0xFF;

    TraceSnapshot restored;
    std::string error;
    EXPECT_FALSE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                            restored, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesUnsupportedVersion)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);
    bytes[4] = 0x63;    // version 99

    TraceSnapshot restored;
    std::string error;
    EXPECT_FALSE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                            restored, &error));
    EXPECT_NE(error.find("version 99"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesTruncatedPayload)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);
    bytes.resize(bytes.size() - 16);    // drop one packed record

    TraceSnapshot restored;
    std::string error;
    EXPECT_FALSE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                            restored, &error));
    EXPECT_NE(error.find("promises"), std::string::npos) << error;
}

TEST(SnapshotIntegrity, DeserializeRefusesFlippedPayloadByte)
{
    TraceSnapshot snapshot = smallSnapshot();
    std::vector<uint8_t> bytes;
    snapshot.serialize(bytes);
    bytes[40 + 3] ^= 0x20;    // one payload byte, past the header

    TraceSnapshot restored;
    std::string error;
    EXPECT_FALSE(TraceSnapshot::deserialize(bytes.data(), bytes.size(),
                                            restored, &error));
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
