/**
 * @file
 * Persistent content-addressed result store (DESIGN.md §15).
 *
 * A durable, write-ahead segment log of run records keyed by
 * sweepRunKey (benchmark:hash64(config)). On disk a store is a
 * directory:
 *
 *   base-<G>.log       compacted snapshot of generation G: a header
 *                      frame, one data frame per record (key-sorted),
 *                      and a trailing commit frame naming the count.
 *   tail-<G>-<K>.log   append segment K of generation G: a header
 *                      frame then data frames, fsync'd per append.
 *   base-<G>.tmp       in-progress compaction; deleted on open.
 *   quarantine.jsonl   sidecar of frames dropped at open (file, line,
 *                      reason, raw prefix) — corruption is preserved
 *                      for forensics, never silently discarded.
 *   CLEAN              clean-shutdown marker written by close() and
 *                      deleted at open; its absence means the previous
 *                      process died and this open is a recovery scan.
 *
 * Every frame is one self-checking text line (frameLine: crc32 hex +
 * space + compact JSON), so `tools/store_fsck.py` and a human with
 * `less` both understand a store. Durability rules:
 *
 *   - put() returns only after the record is fsync'd. A crash at any
 *     instant loses at most the put in flight.
 *   - A torn final line of the newest tail is cut off at open (the
 *     crash-mid-append signature); any other unparseable frame is
 *     quarantined and skipped.
 *   - One open handle per directory: open() takes an exclusive flock
 *     on the directory, held until close() or destruction.
 *   - Compaction is generation-stamped and crash-safe at every step:
 *     the new base is written to a .tmp, fsync'd, atomically renamed,
 *     and only then are the old generation's files unlinked. A crash
 *     between any two steps leaves either the old generation intact
 *     or the new one complete — never a mix, never data loss.
 *
 * Thread-safe; one writer mutex serializes mutation (the simulations
 * the store memoizes cost seconds, the store microseconds).
 */

#ifndef SPECFETCH_SERVE_RESULT_STORE_HH_
#define SPECFETCH_SERVE_RESULT_STORE_HH_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "report/json.hh"

namespace specfetch {

/**
 * Frame @p payload as one self-checking line (sans newline):
 * "<crc32 hex, 8 chars> <compact JSON>".
 */
std::string frameLine(const JsonValue &payload);

/**
 * Validate one framed line (sans newline) back into @p payload.
 * Returns false with a human-readable @p reason when the line fails
 * its CRC or the checksummed text does not parse.
 */
bool parseFrameLine(const std::string &line, JsonValue &payload,
                    std::string &reason);

class FaultInjector;
class MetricsRegistry;
class MetricCounter;
class MetricGauge;
class LatencyHistogram;

class ResultStore
{
  public:
    struct Options
    {
        /** Store directory; created when missing. */
        std::string dir;
        /** Rotate the append tail past this many bytes. */
        uint64_t maxSegmentBytes = 4 * 1024 * 1024;
        /**
         * Borrowed fault hooks consulted on every put (ordinal = put
         * attempt): shortwrite@N persists a torn frame then fails,
         * enospc@N fails without writing, tear@N tears and _Exit()s,
         * crash@N dies after the durable write but before the ack.
         */
        const FaultInjector *injector = nullptr;
        /**
         * Borrowed telemetry sink; may be null (every instrument
         * check is then one pointer test — DESIGN.md §16). open()
         * resolves `store.*` instruments once; put/get/fsync/compact
         * record latencies, gauges track records/tail bytes/
         * generation.
         */
        MetricsRegistry *metrics = nullptr;

        /** Test-only: die mid-compaction at a chosen step. */
        enum class CompactCrash : uint8_t
        {
            None,
            BeforeCommit,  ///< tmp written, commit frame missing
            BeforeRename,  ///< tmp complete, rename not yet done
            BeforeCleanup, ///< renamed, old generation not yet removed
        };
        CompactCrash testCompactCrash = CompactCrash::None;
    };

    struct Stats
    {
        uint64_t records = 0;        ///< keys in the index
        uint64_t generation = 1;     ///< current compaction generation
        uint64_t segmentsLoaded = 0; ///< store files scanned at open
        uint64_t corruptFrames = 0;  ///< frames quarantined at open
        uint64_t duplicatePuts = 0;  ///< puts satisfied by the index
        uint64_t appendAttempts = 0; ///< put ordinals consumed
        uint64_t compactions = 0;    ///< successful compact() calls
        /** Distinct stale generations whose files open() removed. */
        uint64_t staleGenerationsRemoved = 0;
        bool tornTail = false;       ///< open dropped a torn tail line
        bool recovered = false;      ///< open found no CLEAN marker
    };

    ResultStore() = default;
    /** Closes the tail file and drops the directory lock without
     *  writing the clean-shutdown marker (destruction without close()
     *  models a crash). */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open (or create) the store at @p options.dir, rebuilding the
     * in-memory index by scanning segments. Returns false only when
     * the directory itself is unusable or another handle holds it
     * open; corruption inside it is tolerated, quarantined, and
     * reported through stats().
     */
    bool open(const Options &options, std::string *error = nullptr);

    bool isOpen() const { return opened; }

    /** Fetch the record stored under @p key. */
    bool get(const std::string &key, JsonValue &record) const;

    /**
     * Durably append one record. Returns true once the record is
     * fsync'd (or was already present — duplicate puts are free hits).
     * Returns false with @p error when the write failed; the store
     * stays usable and the next append resyncs the segment.
     */
    bool put(const std::string &key, const JsonValue &record,
             std::string *error = nullptr);

    /**
     * Fold base + tails into a fresh generation-stamped base. Safe to
     * crash at any step; see the file comment for the protocol.
     */
    bool compact(std::string *error = nullptr);

    /**
     * Flush, write the clean-shutdown marker, and close. Reopening
     * after close() is not a recovery scan.
     */
    bool close(std::string *error = nullptr);

    size_t size() const;
    Stats stats() const;

    /**
     * Schema-v1 `store_open` startup summary: what the recovery scan
     * found and silently repaired (torn tail dropped, frames
     * quarantined, stale generations removed), so operators see data
     * loss at open time instead of inferring it from store_fsck.
     */
    JsonValue openSummaryRecord() const;

    /** Visit every (key, record) pair, in key order. */
    void forEach(
        const std::function<void(const std::string &key,
                                 const JsonValue &record)> &visit) const;

  private:
    void unlockDirectory();
    bool ensureTail(std::string *error);
    void closeTail();
    bool writeFrame(std::FILE *file, const std::string &line,
                    bool withNewline);
    void quarantineFrame(const std::string &file, size_t lineNumber,
                         const std::string &reason, const std::string &raw);
    void loadSegment(const std::string &name, uint64_t expectGeneration,
                     uint64_t expectSegment, bool lastTail);

    mutable std::mutex mutex;
    Options opts;
    bool opened = false;
    /** The store directory's descriptor, flock'ed while open. */
    int dirLock = -1;
    std::map<std::string, JsonValue> index;
    Stats state;
    /** Highest generation any store file ever named; the next
     *  compaction stamps maxSeenGeneration + 1 so a stale higher-
     *  numbered file can never shadow fresh data. */
    uint64_t maxSeenGeneration = 1;
    uint64_t nextTailIndex = 1;
    std::FILE *tail = nullptr;
    std::string tailName;
    uint64_t tailBytes = 0;
    /** A failed write may have left a partial line; resync first. */
    bool dirty = false;

    /** Instruments resolved once in open(); null when telemetry is
     *  off, making every hot-path hook one pointer test. */
    LatencyHistogram *putLatency = nullptr;
    LatencyHistogram *getLatency = nullptr;
    LatencyHistogram *fsyncLatency = nullptr;
    LatencyHistogram *compactLatency = nullptr;
    MetricCounter *getHits = nullptr;
    MetricCounter *getMisses = nullptr;
    MetricGauge *recordsGauge = nullptr;
    MetricGauge *tailBytesGauge = nullptr;
    MetricGauge *generationGauge = nullptr;
};

/** Serialize store stats as metrics-record members ("records",
 *  "generation", ..., "torn_tail", "recovered"). */
JsonValue toJson(const ResultStore::Stats &stats);

/** Builds the stored record of run @p index; must be deterministic
 *  (no timing), or a rerun could not reproduce a clean run's bytes.
 *  Called from sweep worker threads. */
using RecordMaker =
    std::function<JsonValue(size_t index, const SimResults &results)>;

/** What runStoreSweep produced. */
struct StoreSweepResult
{
    /** Records indexed like specs; JSON null where quarantined. */
    std::vector<JsonValue> records;
    /** Quarantined runs (indices into specs), in submission order. */
    std::vector<SweepFailure> failures;
    /** Runs answered from the store without executing. */
    size_t resumedRuns = 0;
    /** Runs executed (and put) by this call. */
    size_t executedRuns = 0;
};

/**
 * The store-backed grid. Every spec whose sweepRunKey is in @p store
 * is answered with the stored record; the misses run through
 * runSweep(@p options) — whose onRunComplete is replaced, and whose
 * timing and observations describe the misses only — and each
 * completed run's record is put the moment it completes. Killed at
 * any instant and rerun, the grid's records come back byte-identical
 * (simulation is deterministic, records carry no timing); rerun
 * against a complete store, it executes nothing. A store from another
 * grid simply never hits.
 */
StoreSweepResult runStoreSweep(ResultStore &store,
                               const std::vector<RunSpec> &specs,
                               SweepOptions options,
                               const RecordMaker &makeRecord);

/** The marker filename (exposed for tests and fsck). */
constexpr const char *kStoreCleanMarker = "CLEAN";
/** The quarantine sidecar filename. */
constexpr const char *kStoreQuarantineFile = "quarantine.jsonl";

} // namespace specfetch

#endif // SPECFETCH_SERVE_RESULT_STORE_HH_
