#include "trace/snapshot.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

/** Serialized header, little-endian, 40 bytes. */
struct SnapshotHeader
{
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t startPc = 0;
    uint64_t instructionCount = 0;
    uint64_t recordCount = 0;
    uint64_t contentHash = 0;
};
static_assert(sizeof(SnapshotHeader) == 40, "header layout is the format");

bool
refuse(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

/** Every control class but CondBranch is always taken. */
bool
alwaysTaken(uint8_t cls)
{
    return cls != static_cast<uint8_t>(InstClass::CondBranch);
}

/**
 * The record of control instruction @p inst, the @p index-th of its
 * stream, after @p plain_before plains. Panics on what the record
 * cannot hold or replay must not see: a misaligned target, one beyond
 * a signed 32-bit instruction offset, or an untaken unconditional.
 */
TraceSnapshot::ControlRecord
packControl(const DynInst &inst, uint64_t index, uint32_t plain_before)
{
    auto where = [&] {
        return "snapshot control at instruction " + std::to_string(index) +
               " (pc " + hexString(inst.pc) + ")";
    };
    const uint8_t cls = static_cast<uint8_t>(inst.cls);
    panic_if(!inst.taken && alwaysTaken(cls), "%s: untaken %s",
             where().c_str(), toString(inst.cls).c_str());
    panic_if(inst.target % kInstBytes != 0, "%s: target %s misaligned",
             where().c_str(), hexString(inst.target).c_str());
    // Wrapping difference: a target below pc reads as negative.
    const auto offset =
        static_cast<int64_t>(inst.target - inst.pc) /
        static_cast<int64_t>(kInstBytes);
    panic_if(offset != static_cast<int32_t>(offset),
             "%s: target %s is beyond a 32-bit instruction offset",
             where().c_str(), hexString(inst.target).c_str());
    return TraceSnapshot::ControlRecord::pack(
        static_cast<int32_t>(offset), plain_before, cls, inst.taken);
}

} // namespace

void *
mapAnonymousPages(size_t bytes)
{
    void *pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED)
        throw std::bad_alloc();
    return pages;
}

void
unmapAnonymousPages(void *pages, size_t bytes)
{
    munmap(pages, bytes);
}

TraceSnapshot
TraceSnapshot::record(InstructionSource &source, uint64_t length,
                      uint32_t max_plain_run)
{
    panic_if(max_plain_run == 0, "snapshot plain runs cannot be empty");
    panic_if(max_plain_run > kMaxPlainRun,
             "snapshot plain runs cannot exceed %u instructions",
             kMaxPlainRun);

    TraceSnapshot snap;
    // Up to ~20-25% of dynamic instructions are control (paper Table
    // 3), so reserve one record per 4 instructions. Each record is
    // written once, into the pages the snapshot keeps: the
    // reservation's untouched tail is address space, not resident
    // memory (PageAllocator), so it is not trimmed by a copy.
    snap.recs.reserve(static_cast<size_t>(length / 4 + 1));

    DynInst inst;
    uint32_t plain_run = 0;     // plains since the last record
    Addr expected = 0;
    while (snap.count < length) {
        // Take plains in bulk where the source offers them, capped so
        // that a run reaching max_plain_run closes a run-only chunk.
        Addr pc = 0;
        uint32_t plains = source.takePlainRun(
            pc, static_cast<uint32_t>(std::min<uint64_t>(
                    length - snap.count, max_plain_run - plain_run)));
        if (plains == 0) {
            if (!source.next(inst))
                break;
            pc = inst.pc;
            plains = inst.cls == InstClass::Plain ? 1 : 0;
        }
        // One continuity check per run or control instruction; an
        // aligned start keeps every later pc aligned.
        if (snap.count == 0) {
            panic_if(pc % kInstBytes != 0, "snapshot start pc %s misaligned",
                     hexString(pc).c_str());
            snap.start = pc;
        } else {
            panic_if(pc != expected,
                     "snapshot source is not path-continuous at "
                     "instruction %llu: pc %llx, expected %llx",
                     static_cast<unsigned long long>(snap.count),
                     static_cast<unsigned long long>(pc),
                     static_cast<unsigned long long>(expected));
        }

        if (plains > 0) {
            snap.count += plains;
            expected = pc + static_cast<Addr>(plains) * kInstBytes;
            plain_run += plains;
            if (plain_run == max_plain_run) {
                snap.recs.push_back(ControlRecord::pack(
                    0, max_plain_run, uint8_t(InstClass::Plain), false));
                plain_run = 0;
            }
        } else {
            snap.recs.push_back(packControl(inst, snap.count, plain_run));
            ++snap.count;
            expected = inst.nextPc();
            plain_run = 0;
        }
    }
    if (plain_run > 0) {
        snap.recs.push_back(ControlRecord::pack(
            0, plain_run, uint8_t(InstClass::Plain), false));
    }
    snap.hash = snap.computeHash();
    return snap;
}

uint64_t
TraceSnapshot::computeHash() const
{
    // Seed the record-bytes digest with the scalar header fields so a
    // flipped start PC or count is as detectable as a flipped record.
    uint64_t seed = hash64(&start, sizeof(start), count);
    return hash64(recs.data(), recs.size() * sizeof(ControlRecord), seed);
}

bool
TraceSnapshot::verify(std::string *error) const
{
    if (count == 0 && recs.empty())
        return true;    // nothing recorded, nothing to corrupt
    uint64_t actual = computeHash();
    if (actual == hash)
        return true;
    return refuse(error,
                  "snapshot content digest mismatch (stored " +
                      hexString(hash) + ", recomputed " +
                      hexString(actual) + ")");
}

bool
TraceSnapshot::validate(std::string *error) const
{
    if (start % kInstBytes != 0)
        return refuse(error, "start pc " + hexString(start) + " misaligned");
    auto bad = [error](size_t i, const std::string &what) {
        return refuse(error, "record " + std::to_string(i) + " " + what);
    };
    uint64_t population = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
        const ControlRecord &rec = recs[i];
        if (rec.runOnly()) {
            if (rec.plainBefore() == 0)
                return bad(i, "is a run of zero plains");
            if (rec.taken() || rec.targetOffset() != 0)
                return bad(i, "is a plain run with a target or direction");
            population += rec.plainBefore();
            continue;
        }
        if (rec.cls() > static_cast<uint8_t>(InstClass::IndirectCall))
            return bad(i,
                       "carries invalid class " + std::to_string(rec.cls()));
        if (!rec.taken() && alwaysTaken(rec.cls()))
            return bad(i, "is an untaken " +
                              toString(static_cast<InstClass>(rec.cls())));
        population += rec.plainBefore() + 1;
    }
    if (population != count) {
        return refuse(error,
                      "record population " + std::to_string(population) +
                          " != instruction count " + std::to_string(count));
    }
    return true;
}

void
TraceSnapshot::serialize(std::vector<uint8_t> &out) const
{
    SnapshotHeader header;
    header.magic = kMagic;
    header.version = kVersion;
    header.startPc = start;
    header.instructionCount = count;
    header.recordCount = recs.size();
    header.contentHash = hash;

    size_t payload = recs.size() * sizeof(ControlRecord);
    size_t base = out.size();
    out.resize(base + sizeof(header) + payload);
    std::memcpy(out.data() + base, &header, sizeof(header));
    if (payload > 0)
        std::memcpy(out.data() + base + sizeof(header), recs.data(),
                    payload);
}

bool
TraceSnapshot::deserialize(const uint8_t *data, size_t size,
                           TraceSnapshot &out, std::string *error)
{
    out = TraceSnapshot{};
    if (size < sizeof(SnapshotHeader))
        return refuse(error, "truncated snapshot: no room for the header");

    SnapshotHeader header;
    std::memcpy(&header, data, sizeof(header));
    if (header.magic != kMagic)
        return refuse(error, "not a specfetch snapshot (bad magic)");
    if (header.version != kVersion) {
        return refuse(error, "unsupported snapshot version " +
                                 std::to_string(header.version) +
                                 " (want " + std::to_string(kVersion) +
                                 ")");
    }
    size_t payload = size - sizeof(header);
    if (payload % sizeof(ControlRecord) != 0 ||
        payload / sizeof(ControlRecord) != header.recordCount) {
        return refuse(error,
                      "truncated snapshot payload: header promises " +
                          std::to_string(header.recordCount) +
                          " records, payload holds " +
                          std::to_string(payload / sizeof(ControlRecord)));
    }

    out.start = header.startPc;
    out.count = header.instructionCount;
    out.hash = header.contentHash;
    out.recs.resize(header.recordCount);
    if (payload > 0)
        std::memcpy(out.recs.data(), data + sizeof(header), payload);

    std::string why;
    if (!out.verify(&why)) {
        out = TraceSnapshot{};
        return refuse(error, "corrupt snapshot payload: " + why);
    }
    if (!out.validate(&why)) {
        out = TraceSnapshot{};
        return refuse(error, "structurally invalid snapshot: " + why);
    }
    return true;
}

void
TraceSnapshot::corruptBitForTesting(size_t bitIndex)
{
    panic_if(recs.empty(), "cannot corrupt an empty snapshot");
    size_t byte = (bitIndex / 8) % (recs.size() * sizeof(ControlRecord));
    uint8_t *bytes = reinterpret_cast<uint8_t *>(recs.data());
    bytes[byte] = static_cast<uint8_t>(bytes[byte] ^ (1u << (bitIndex % 8)));
}

} // namespace specfetch
