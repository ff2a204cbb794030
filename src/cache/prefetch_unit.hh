/**
 * @file
 * The composite prefetch unit the fetch engine drives: selects among
 * no prefetching, the paper's next-line policy, target prefetching,
 * and the Smith & Hsu combination (target takes priority over
 * next-line on a shared one-entry buffer, mirroring Pierce & Mudge's
 * priority rule).
 */

#ifndef SPECFETCH_CACHE_PREFETCH_UNIT_HH_
#define SPECFETCH_CACHE_PREFETCH_UNIT_HH_

#include <string>

#include "cache/prefetcher.hh"
#include "cache/stream_buffer.hh"

namespace specfetch {

/** Which prefetch mechanism, if any, the machine runs. */
enum class PrefetchKind : uint8_t
{
    None,
    NextLine,    ///< the paper's evaluated policy (§3)
    Target,      ///< Smith & Hsu-style target table (§2.2)
    Combined,    ///< target first, next-line second
    Stream,      ///< Jouppi-style sequential stream buffer (§2.2)
};

/** Display name ("none", "next-line", ...). */
std::string toString(PrefetchKind kind);

/** Parse a mechanism name (case-insensitive, surrounding spaces
 *  ignored; "nextline" is accepted for "next-line"). False on unknown
 *  names. */
bool parsePrefetchKind(const std::string &text, PrefetchKind &out);

/**
 * Facade over the individual prefetchers with one shared buffer.
 */
class PrefetchUnit
{
    // Declared before the prefetchers so it is constructed before
    // their references bind and use it (member-init order).
    PrefetchKind kind_;
    LineBuffer sharedBuffer;

  public:
    /**
     * @param kind    Active mechanism.
     * @param cache   Shared instruction-cache array.
     * @param bus     Shared memory bus.
     * @param shadow  Resume buffer to treat as present (may be null).
     * @param target_entries Target-table capacity (power of two).
     */
    PrefetchUnit(PrefetchKind kind, ICache &cache, MemoryBus &bus,
                 const LineBuffer *shadow, unsigned target_entries = 64,
                 MemoryHierarchy *hierarchy = nullptr)
        : kind_(kind),
          nextLine(cache, bus, sharedBuffer, shadow, hierarchy),
          target(cache, bus, sharedBuffer, shadow, target_entries,
                 hierarchy),
          stream(cache, bus, hierarchy)
    {
    }

    PrefetchKind kind() const { return kind_; }
    bool enabled() const { return kind_ != PrefetchKind::None; }

    /**
     * Consider prefetching after a fetch access to @p line. Under
     * Combined, the target table has priority; if it does not issue,
     * next-line may.
     * @return true if any prefetch was issued.
     */
    bool
    onAccess(Addr line, Slot now, Slot fill_slots)
    {
        switch (kind_) {
          case PrefetchKind::None:
          case PrefetchKind::Stream:
            // Stream buffers trigger on misses (onDemandMiss), not on
            // ordinary accesses.
            return false;
          case PrefetchKind::NextLine:
            return nextLine.onAccess(line, now, fill_slots);
          case PrefetchKind::Target:
            return target.onAccess(line, now, fill_slots);
          case PrefetchKind::Combined:
            if (target.onAccess(line, now, fill_slots))
                return true;
            return nextLine.onAccess(line, now, fill_slots);
        }
        return false;
    }

    /** Train the target table on a correct-path taken transfer. */
    void
    trainTarget(Addr from_line, Addr to_line)
    {
        if (kind_ == PrefetchKind::Target ||
            kind_ == PrefetchKind::Combined) {
            target.train(from_line, to_line);
        }
    }

    /** The shared prefetch buffer (probed by the fetch engine). */
    LineBuffer &buffer() { return sharedBuffer; }
    const LineBuffer &buffer() const { return sharedBuffer; }

    /** Retire a completed prefetch into the array. */
    void
    drain(Slot now)
    {
        nextLine.drain(now);    // shared buffer: one drain suffices
    }

    /**
     * A demand miss to @p line finished filling: give the stream
     * buffer its allocation trigger.
     */
    void
    onDemandMiss(Addr line, Slot now, Slot fill_slots)
    {
        if (kind_ == PrefetchKind::Stream)
            stream.allocateAfterMiss(line, now, fill_slots);
    }

    /** @name Stream-head probe surface for the fetch engine. @{ */
    bool
    streamMatches(Addr line) const
    {
        return kind_ == PrefetchKind::Stream && stream.matches(line);
    }
    Slot streamReadyAt() const { return stream.readyAt(); }
    void
    streamConsume(Slot now, Slot fill_slots)
    {
        stream.consume(now, fill_slots);
    }
    /** @} */

    /** Total prefetches issued by any mechanism. */
    uint64_t
    issuedCount() const
    {
        return nextLine.issued.value() + target.issued.value() +
               stream.fills.value();
    }

    void
    reset()
    {
        sharedBuffer.clear();
        target.reset();
        stream.flush();
    }

    /** Component access for stats and tests. @{ */
    NextLinePrefetcher nextLine;
    TargetPrefetcher target;
    StreamBuffer stream;
    /** @} */
};

} // namespace specfetch

#endif // SPECFETCH_CACHE_PREFETCH_UNIT_HH_
