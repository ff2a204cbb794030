/**
 * @file
 * Persistent content-addressed result store (DESIGN.md §15).
 *
 * A durable, write-ahead segment log of run records keyed by
 * sweepRunKey (benchmark:hash64(config)). On disk a store is a
 * directory:
 *
 *   tail-1-<K>.log     append segment K: a header frame then data
 *                      frames, fsync'd per append. The "1" is a format
 *                      constant (so is the "generation":1 that header
 *                      frames and CLEAN carry).
 *   quarantine.jsonl   sidecar of the frames the latest open skipped
 *                      (file, line, reason, raw prefix): corruption is
 *                      preserved for forensics, never silently
 *                      discarded. An open that skips nothing removes it.
 *   CLEAN              clean-shutdown marker written by close(). Open
 *                      rewrites it in place as a session-open frame,
 *                      which vouches for nothing; its absence, that
 *                      frame, or a marker whose record count disagrees
 *                      with the segments means this open is a recovery
 *                      scan.
 *
 * Every frame is one self-checking text line (frameLine: crc32 hex +
 * space + compact JSON), so a human with `less` understands a store.
 * Recovery is stated once, in planOpen: a pure function from the
 * directory's files to what open does with them. open() applies its
 * plan; `store_fsck` (bench/store_fsck.cc) reports it without a lock or
 * a write. Durability rules:
 *
 *   - put() returns only after the record is fsync'd. A crash at any
 *     instant loses at most the put in flight.
 *   - A torn final line of the newest tail is cut off at open (the
 *     crash-mid-append signature); any other unparseable frame is
 *     quarantined and skipped.
 *   - One open handle per directory: open() takes an exclusive flock
 *     on the directory, held until close() or destruction.
 *   - open() refuses a directory holding a file it would misread: a
 *     base-*.log or base-*.tmp (an older build's compaction), a tail of
 *     another generation, or a segment under a non-canonical name
 *     (tail-1-01.log). The error names the file; nothing is modified.
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
#include <optional>
#include <string>
#include <string_view>
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
         * resolves `store.*` instruments once; open/put/get/fsync
         * record latencies, a gauge tracks the tail's bytes.
         */
        MetricsRegistry *metrics = nullptr;
    };

    struct Stats
    {
        uint64_t records = 0;        ///< keys in the index
        uint64_t segmentsLoaded = 0; ///< store files scanned at open
        uint64_t corruptFrames = 0;  ///< frames quarantined at open
        uint64_t duplicatePuts = 0;  ///< puts satisfied by the index
        uint64_t appendAttempts = 0; ///< put ordinals consumed
        bool tornTail = false;       ///< open dropped a torn tail line
        /** Open found no CLEAN marker beside its segments, or one that
         *  does not vouch for them (a session-open frame, or a record
         *  count that disagrees). */
        bool recovered = false;
    };

    ResultStore() = default;
    /** Closes the tail file and drops the directory lock without
     *  writing the clean-shutdown marker (destruction without close()
     *  models a crash). */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Open (or create) the store at @p options.dir: lock it, read its
     * files, and apply planOpen's plan (rewrite CLEAN in place, cut the
     * torn tail, rewrite the quarantine sidecar), logging each finding.
     * With telemetry on, each call is one `store.open_us` observation.
     * Returns false when the directory itself is unusable, another
     * handle holds it open, or the plan is a refusal (see the file
     * comment); corruption inside a segment is tolerated, quarantined,
     * and reported through stats().
     */
    bool open(const Options &options, std::string *error = nullptr);

    bool isOpen() const { return opened; }

    /** Copy the compact JSON text of the record stored under @p key
     *  into @p recordJson: the bytes a hit serves. */
    bool get(const std::string &key, std::string &recordJson) const;

    /** Fetch the record stored under @p key, parsed: an adapter over
     *  the text get() for callers that inspect the tree. */
    bool get(const std::string &key, JsonValue &record) const;

    /**
     * Durably append one record given as its compact JSON text (a
     * JsonValue::dump() of an object). The data frame is built by
     * concatenation, so its bytes equal frameLine of
     * {"key":key,"record":record}. Returns true once the record is
     * fsync'd (or was already present — duplicate puts are free hits).
     * Returns false with @p error when the write failed; the store
     * stays usable and the next append resyncs the segment.
     */
    bool put(const std::string &key, std::string_view recordJson,
             std::string *error = nullptr);

    /** put() of @p record's dump(). */
    bool put(const std::string &key, const JsonValue &record,
             std::string *error = nullptr);

    /**
     * Flush, rewrite CLEAN in place as the clean-shutdown marker (only
     * a store without one creates it and fsyncs the directory), and
     * close. Reopening after close() is not a recovery scan.
     */
    bool close(std::string *error = nullptr);

    size_t size() const;
    Stats stats() const;

    /**
     * Schema-v1 `store_open` startup summary: what the recovery scan
     * found and silently repaired (torn tail dropped, frames
     * quarantined), so operators see data loss at open time instead of
     * inferring it from store_fsck.
     */
    JsonValue openSummaryRecord() const;

    /** Visit every (key, record text) pair, in key order. */
    void forEach(
        const std::function<void(const std::string &key,
                                 const std::string &recordJson)> &visit)
        const;

  private:
    void unlockDirectory();
    bool ensureTail(std::string *error);
    void closeTail();
    /** Write the newline (and fsync) that ends a partial frame. */
    bool fenceTail();
    bool writeFrame(const std::string &line, bool withNewline);

    mutable std::mutex mutex;
    Options opts;
    bool opened = false;
    /** The store directory's descriptor, flock'ed while open. */
    int dirLock = -1;
    /** key -> the record's compact JSON text. */
    std::map<std::string, std::string> index;
    Stats state;
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
    MetricCounter *getHits = nullptr;
    MetricCounter *getMisses = nullptr;
    MetricGauge *tailBytesGauge = nullptr;
};

/** A store directory's regular files: name -> bytes. */
using StoreFiles = std::map<std::string, std::string>;

/**
 * Every regular file of @p dir, or nullopt with an @p error naming the
 * directory or the file that could not be read.
 */
std::optional<StoreFiles> readStoreFiles(const std::string &dir,
                                         std::string *error = nullptr);

/** What open() does with a store directory's files. */
struct OpenPlan
{
    /** "<file> <why>" when open refuses the directory; the rest of the
     *  plan is then empty, and open modifies nothing. */
    std::string refusal;
    /** The records open serves: key -> the record's dump(). */
    std::map<std::string, std::string> index;
    /** Torn tails to cut: (segment file, bytes kept); keeping 0 bytes
     *  removes the file, a tail without its header frame. */
    std::vector<std::pair<std::string, size_t>> cuts;
    /** quarantine.jsonl rows, one per skipped frame; none removes the
     *  sidecar. */
    std::vector<JsonValue> quarantine;
    /** What open writes over CLEAN, in place: the session-open frame
     *  when CLEAN is present, empty when it is absent (open creates
     *  none). */
    std::string cleanRewrite;
    /** What stats() reports after the open. */
    ResultStore::Stats stats;
    /** Number of the next segment the store creates. */
    uint64_t nextSegment = 1;
    /**
     * One line per frame or file open repairs, skips or ignores, and
     * per recovery scan: open's log lines, store_fsck's warnings. A
     * store that closed cleanly has none.
     */
    std::vector<std::string> findings;
};

/**
 * The one statement of store recovery: what open() would do with a
 * directory holding @p files. Pure: it reads nothing, writes nothing
 * and takes no lock.
 */
OpenPlan planOpen(const StoreFiles &files);

/** Serialize store stats as metrics-record members ("records",
 *  "segments_loaded", ..., "torn_tail", "recovered"). */
JsonValue toJson(const ResultStore::Stats &stats);

/** Builds the stored record of run @p index from its results and its
 *  row's Table-4 classification; must be deterministic (no timing), or
 *  a rerun could not reproduce a clean run's bytes. Called from sweep
 *  worker threads. */
using RecordMaker = std::function<JsonValue(
    size_t index, const SimResults &results,
    const Classification &classification)>;

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
 * runSweep(@p options) — whose onRunComplete and classifications are
 * replaced, and whose timing and observations describe the misses
 * only — and each completed run's record is put the moment it
 * completes. Only the misses' rows are classified, so a rerun against
 * a complete store classifies nothing. Killed at
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
