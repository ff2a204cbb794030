/**
 * @file
 * In-memory record-once/replay-many encoding of a workload's dynamic
 * correct-path stream (DESIGN.md §9).
 *
 * A sweep runs the same benchmark under many machine configurations,
 * and every one of those runs consumes the *identical* correct-path
 * stream: the stream depends only on (program, run seed), never on
 * the machine being simulated. A TraceSnapshot captures that stream
 * from one architectural-executor pass so every subsequent run can
 * replay it instead of re-interpreting the CFG.
 *
 * The encoding exploits a correct-path property: PCs never need to be
 * stored, because the next correct-path PC is always the previous
 * instruction's nextPc(). A snapshot is therefore just the start PC
 * plus one 8-byte ControlRecord per control instruction, each carrying
 * the run of sequential plain instructions preceding it and its target
 * as an offset from its own pc. At the workloads' 1.6-20% control
 * fractions this costs 0.13-1.6 bytes per dynamic instruction, and
 * replay is a branch-predictable run-length walk that is much cheaper
 * than CFG interpretation. A trace file (trace/trace_file.hh) stores
 * the serialized form after the program image.
 */

#ifndef SPECFETCH_TRACE_SNAPSHOT_HH_
#define SPECFETCH_TRACE_SNAPSHOT_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "workload/executor.hh"

namespace specfetch {

/** A fresh anonymous mapping of @p bytes; throws std::bad_alloc. */
void *mapAnonymousPages(size_t bytes);
/** Return a mapAnonymousPages() mapping of @p bytes to the kernel. */
void unmapAnonymousPages(void *pages, size_t bytes);

/**
 * Gives every allocation its own anonymous mapping. A snapshot's
 * records then cost only the pages record() writes (its reservation's
 * untouched tail is address space), and the pages go back to the
 * kernel when the snapshot dies, however long it lived: a snapshot a
 * service keeps across requests leaves no hole in a malloc arena, and
 * none depends on malloc's mmap threshold, which glibc raises after
 * the first large free.
 */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(mapAnonymousPages(n * sizeof(T)));
    }
    void deallocate(T *p, size_t n) { unmapAnonymousPages(p, n * sizeof(T)); }

    friend bool operator==(const PageAllocator &, const PageAllocator &)
    {
        return true;
    }
};

/**
 * Immutable packed encoding of a finite correct-path prefix. Record
 * once (from any InstructionSource), replay concurrently from any
 * number of SnapshotReplaySource cursors — the snapshot itself is
 * never mutated after record() returns, so sharing it across sweep
 * worker threads is safe.
 */
class TraceSnapshot
{
  public:
    /** Longest plain run one record may carry before chunking. */
    static constexpr uint32_t kMaxPlainRun = (uint32_t(1) << 28) - 1;

    /**
     * plainBefore() sequential plain instructions followed by one
     * control instruction, or by nothing when runOnly() (a
     * continuation chunk of an over-long plain run, or the trailing
     * plains after the stream's last control instruction).
     *
     * Eight bytes, every bit defined: a signed 32-bit target offset in
     * instructions from the control's own pc, then one word holding
     * plainBefore in bits 0-27, the class in bits 28-30 (Plain marks a
     * run-only record) and the direction in bit 31. Only this class
     * knows that layout.
     */
    class ControlRecord
    {
      public:
        /** Pack the fields as given, unchecked (record() checks what
         *  it packs, validate() what it reads): @p cls keeps 3 bits,
         *  @p plainBefore 28. */
        static constexpr ControlRecord
        pack(int32_t targetOffset, uint32_t plainBefore, uint8_t cls,
             bool taken)
        {
            ControlRecord rec;
            rec.offset = targetOffset;
            rec.word = (plainBefore & kMaxPlainRun) |
                       uint32_t(cls & 7u) << 28 | uint32_t(taken) << 31;
            return rec;
        }

        /** Sequential plain instructions preceding this control. */
        uint32_t plainBefore() const { return word & kMaxPlainRun; }
        /** The InstClass value; Plain marks a run-only record. */
        uint8_t cls() const { return uint8_t(word >> 28 & 7u); }
        bool runOnly() const { return cls() == uint8_t(InstClass::Plain); }
        /** Dynamic direction (always set for unconditional control). */
        bool taken() const { return word >> 31 != 0; }
        /** Target minus pc, in instructions (kept for not-taken
         *  conditionals too: the engine trains the BTB and walks
         *  misfetch paths with it). */
        int32_t targetOffset() const { return offset; }
        /** The dynamic target of this control when it sits at @p pc. */
        Addr
        target(Addr pc) const
        {
            return pc + Addr(int64_t(offset)) * kInstBytes;
        }

      private:
        int32_t offset = 0;
        uint32_t word = 0;
    };
    static_assert(sizeof(ControlRecord) == 8,
                  "records are packed for cache-friendly replay");
    /** The packed stream, in pages of its own. */
    using Records = std::vector<ControlRecord, PageAllocator<ControlRecord>>;

    /** Serialized-form magic: 'SFSN' little-endian. */
    static constexpr uint32_t kMagic = 0x4E534653;
    /** Bump when the serialized layout changes incompatibly (version
     *  1 spent 16 bytes per record and is refused). */
    static constexpr uint32_t kVersion = 2;

    TraceSnapshot() = default;

    /**
     * Record up to @p length instructions from @p source.
     *
     * The source must produce a path-continuous stream (each pc equal
     * to the previous instruction's nextPc()) whose control targets
     * are instruction aligned and within a signed 32-bit instruction
     * offset of their pc, and whose unconditional controls are taken;
     * anything else is a corrupted source and panics. @p max_plain_run
     * (at most kMaxPlainRun) exists for tests that exercise run
     * chunking without billions of instructions.
     */
    static TraceSnapshot record(InstructionSource &source, uint64_t length,
                                uint32_t max_plain_run = kMaxPlainRun);

    /** Dynamic instructions captured (min of requested and available). */
    uint64_t instructionCount() const { return count; }

    /** PC of the first recorded instruction. */
    Addr startPc() const { return start; }

    /** Memory footprint of the packed stream. */
    uint64_t
    byteSize() const
    {
        return static_cast<uint64_t>(recs.size()) * sizeof(ControlRecord);
    }

    const Records &records() const { return recs; }

    /**
     * xxhash-style digest of the packed stream (plus start PC and
     * instruction count), computed once by record(). A replayer that
     * re-derives the digest and compares against this detects any
     * in-memory bit flip of the shared snapshot.
     */
    uint64_t contentHash() const { return hash; }

    /**
     * Recompute the content digest and compare with the one record()
     * stored. Returns false — never panics — on mismatch, naming the
     * expected/actual digests in @p error; the guarded sweep then
     * falls back to live execution instead of replaying garbage.
     */
    bool verify(std::string *error = nullptr) const;

    /**
     * Structural sanity independent of the digest: every record is
     * either a control record of a control class, taken if its class
     * is unconditional, or a run-only record carrying at least one
     * plain and no target or direction; the start PC is instruction
     * aligned; and the per-record populations add up to
     * instructionCount(). Catches damage that a correctly rehashed
     * mutation would not, so replay only ever sees a stream record()
     * could have written (a misaligned PC would stall the wrong-path
     * walker). Errors name the offending record.
     */
    bool validate(std::string *error = nullptr) const;

    /**
     * Append the versioned serialized form to @p out: a header
     * (magic, version, start PC, instruction count, record count,
     * content digest) followed by the packed records. The digest
     * covers the payload, so deserialize() refuses bit flips.
     */
    void serialize(std::vector<uint8_t> &out) const;

    /**
     * Parse a serialized snapshot. Refuses — returns false with a
     * reason in @p error, never crashes — truncated input, wrong
     * magic, unsupported versions, and payloads whose digest does not
     * match the header.
     */
    static bool deserialize(const uint8_t *data, size_t size,
                            TraceSnapshot &out,
                            std::string *error = nullptr);

    /**
     * Fault-injection hook: flip one bit of the packed stream so
     * integrity checking can be exercised deterministically. Panics
     * on an empty snapshot. Testing only — a production snapshot is
     * immutable after record().
     */
    void corruptBitForTesting(size_t bitIndex);

  private:
    uint64_t computeHash() const;

    Records recs;
    Addr start = 0;
    uint64_t count = 0;
    uint64_t hash = 0;
};

/**
 * Replay cursor over a TraceSnapshot. The class is final and next()
 * and takePlainRun() are defined inline so
 * FetchEngine::runWith<SnapshotReplaySource> statically binds and
 * inlines the source step.
 *
 * Unlike the live executor (which never exhausts), a replay source
 * ends with its snapshot; record at least the longest consumer's
 * (warmup + budget) instructions.
 */
class SnapshotReplaySource final : public InstructionSource
{
  public:
    explicit SnapshotReplaySource(const TraceSnapshot &snapshot)
        : cur(snapshot.records().data()),
          end(cur + snapshot.records().size()), pc(snapshot.startPc())
    {
        if (cur != end)
            loadRecord();
    }

    /**
     * Consume up to @p max instructions of the current record's
     * pending plain run. Returns 0 once that run is drained, even
     * when a run-only record follows: next() steps past the record
     * boundary.
     */
    uint32_t
    takePlainRun(Addr &pc_out, uint32_t max) override
    {
        uint32_t n = plainLeft < max ? plainLeft : max;
        pc_out = pc;
        plainLeft -= n;
        pc += Addr(n) * kInstBytes;
        return n;
    }

    bool
    next(DynInst &out) override
    {
        for (;;) {
            if (plainLeft > 0) {
                --plainLeft;
                out = DynInst{pc, InstClass::Plain, false, 0};
                pc += kInstBytes;
                return true;
            }
            if (cur == end)
                return false;
            if (controlPending) {
                controlPending = false;
                // Direct cast on the per-control hot path: record()
                // wrote a genuine InstClass, and deserialize() has
                // validated every class read from outside.
                out = DynInst{pc, static_cast<InstClass>(cur->cls()),
                              cur->taken(), cur->target(pc)};
                pc = out.taken ? out.target : pc + kInstBytes;
                ++cur;
                if (cur != end)
                    loadRecord();
                return true;
            }
            // A run-only record whose plains are drained: move on.
            ++cur;
            if (cur != end)
                loadRecord();
        }
    }

  private:
    void
    loadRecord()
    {
        plainLeft = cur->plainBefore();
        controlPending = !cur->runOnly();
    }

    const TraceSnapshot::ControlRecord *cur = nullptr;
    const TraceSnapshot::ControlRecord *end = nullptr;
    Addr pc = 0;
    uint32_t plainLeft = 0;
    bool controlPending = false;
};

} // namespace specfetch

#endif // SPECFETCH_TRACE_SNAPSHOT_HH_
