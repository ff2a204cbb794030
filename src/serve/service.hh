/**
 * @file
 * The sweep service (DESIGN.md §15): a long-running front end over the
 * ResultStore and the guarded runSweep.
 *
 * Request lifecycle:
 *
 *   submit(line) -> parse/validate (typed error on anything unclean)
 *               -> poisoned-key check
 *               -> store lookup (hit: answered immediately, cached)
 *               -> admission control (queue bound; shed with an
 *                  explicit `overloaded` error + backoff hint)
 *               -> single-flight dedupe (same-key requests ride the
 *                  first one's execution instead of re-simulating)
 *               -> bounded worker pool executes the miss behind
 *                  runSweep's boundary/watchdog/retry guard, replaying
 *                  the (benchmark, run seed) stream an earlier miss
 *                  kept (kKeptStreamBytes)
 *               -> durable store.put, then the response
 *
 * Robustness properties:
 *   - Overload never grows memory without bound: at most queueBound
 *     requests (leaders + followers) are admitted; the rest are shed.
 *   - A request carries an optional deadline; expired requests answer
 *     `deadline_exceeded` with a backoff hint instead of simulating.
 *   - A key that keeps failing is poisoned after poisonThreshold
 *     terminal failures and answered `poisoned` thereafter — one bad
 *     config cannot monopolize the workers.
 *   - drain() finishes every admitted request, then the caller closes
 *     the store (fsync + clean-shutdown marker). Submissions during
 *     drain answer `shutting_down`.
 *   - The worker body never lets an exception escape: any stray throw
 *     becomes a `run_failed` response, not a dead daemon.
 */

#ifndef SPECFETCH_SERVE_SERVICE_HH_
#define SPECFETCH_SERVE_SERVICE_HH_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/miss_classifier.hh"
#include "core/sweep.hh"
#include "serve/request.hh"
#include "serve/result_store.hh"

namespace specfetch {

class MetricsRegistry;
class MetricCounter;
class MetricGauge;
class LatencyHistogram;

class SweepService
{
  public:
    /**
     * Bytes of kept streams the service holds at most: the records of
     * each correct-path stream a miss recorded, plus the
     * classifications of the rows on it. Past it, the least recently
     * used stream goes, and a stream larger than it is never kept. At
     * 200K instructions the 13 profiles' streams take 2.47 MB together
     * (run seed 1); at 2M one takes 0.26-3.16 MB, so porky's is never
     * kept.
     */
    static constexpr uint64_t kKeptStreamBytes = uint64_t(3) << 20;

    struct Options
    {
        /** Worker threads (>= 1). */
        unsigned workers = 1;
        /** Admitted-request bound (leaders + followers). */
        size_t queueBound = 64;
        /**
         * The guard every executed run runs behind; its backoff base
         * also scales the backoff hints of error responses. The
         * injector's run directives name *executed-run ordinals*
         * (misses actually simulated, in execution order): the service
         * projects the spec onto each run via atOrdinal().
         */
        SweepGuard guard;
        /** Per-request deadline from admission (seconds); 0 = none. */
        double requestDeadlineSeconds = 0.0;
        /** Terminal failures before a key is poisoned. */
        unsigned poisonThreshold = 3;
        /** Test-only gate, called after the deadline check and before
         *  the run executes. */
        std::function<void()> testBeforeExecute;
        /**
         * Borrowed telemetry sink; may be null (instrumentation is
         * then one pointer test per hook — DESIGN.md §16). The
         * constructor resolves `service.*` instruments once so no
         * request path ever does a registry lookup.
         */
        MetricsRegistry *metrics = nullptr;
    };

    /**
     * Counters obey the Table-4-style conservation invariant
     *
     *   accepted == hits + executed + deduped + shed + expired
     *               + poisoned + failed + rejected
     *
     * at *every* snapshot, not just at drain: every outcome counter is
     * bumped together with `accepted`, under the service mutex, at the
     * moment the request's final response is decided. `rejected`
     * covers everything refused without execution (malformed,
     * bad_request, shutting_down); `requests` counts submit() calls
     * and equals accepted + stats_ops once the queue is empty.
     */
    struct Stats
    {
        uint64_t requests = 0;  ///< submit() calls
        uint64_t accepted = 0;  ///< requests with a decided outcome
        uint64_t statsOps = 0;  ///< "op":"stats" control requests
        uint64_t rejected = 0;  ///< malformed / bad_request / shutting_down
        uint64_t hits = 0;      ///< answered from the store
        uint64_t deduped = 0;   ///< followers riding another execution
        uint64_t executed = 0;  ///< simulations that completed
        uint64_t shed = 0;      ///< overloaded responses
        uint64_t failed = 0;    ///< run_failed / store_write_failed
        uint64_t expired = 0;   ///< deadline_exceeded responses
        uint64_t poisoned = 0;  ///< poisoned responses
        uint64_t queueDepth = 0; ///< admitted, not yet finished
        uint64_t inflight = 0;  ///< executing right now

        /** Sum of the outcome classes (the invariant's right side). */
        uint64_t outcomeSum() const
        {
            return hits + executed + deduped + shed + expired +
                   poisoned + failed + rejected;
        }
    };

    /** Responses are delivered through this as finished wire lines
     *  (one compact JSON object, sans newline), possibly from a worker
     *  thread; implementations synchronize their own sink. */
    using Responder = std::function<void(std::string line)>;

    SweepService(ResultStore &store, const Options &options);
    /** Drains (finishing admitted work) and joins the workers. */
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Start the worker pool. */
    void start();

    /** Submit one request line; @p respond fires exactly once. */
    void submit(const std::string &line, Responder respond);

    /**
     * Stop intake (`shutting_down` responses), finish every admitted
     * request, join the workers. The store stays open — the caller
     * closes it (fsync + clean marker) after the last response.
     */
    void drain();

    Stats statsSnapshot() const;

    /** The registry this service reports to; null when telemetry is
     *  off (serveStream uses this for its socket counters). */
    MetricsRegistry *metricsRegistry() const { return opts.metrics; }

    /** The "service" member of a metrics record: every Stats counter
     *  plus a "conserved" verdict on the invariant. */
    JsonValue serviceStatsJson() const;

    /**
     * The `"op":"stats"` payload: "service" + "store" members plus
     * the registry's counters/gauges/histograms — the body of a
     * metrics record without the flusher framing. Touches no store
     * data, only in-memory counters.
     */
    JsonValue telemetryBody() const;

    /** One complete schema-v1 `metrics` record (the --metrics-out
     *  flusher's builder). */
    JsonValue metricsRecord(const std::string &label, uint64_t seq,
                            double elapsedSeconds, bool final) const;

  private:
    struct Job
    {
        ServiceRequest request;
        Responder respond;
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
        /** Stamped at submit() when telemetry or tracing is on; the
         *  queue-wait span/histogram starts here. */
        std::chrono::steady_clock::time_point admitTime;
        std::chrono::steady_clock::time_point dequeueTime;
        bool timed = false;
    };

    /**
     * Outcome classes of the conservation invariant, in Stats order.
     * Exactly one is counted per accepted request, at response time.
     */
    enum class Outcome : uint8_t
    {
        Rejected, Hit, Deduped, Executed, Shed, Failed, Expired,
        Poisoned,
    };
    static constexpr unsigned kOutcomeCount = 8;
    /** Executed when @p error is null. */
    static Outcome outcomeOf(const ServiceError *error);
    static const char *outcomeName(Outcome outcome);

    /** Bump @p outcome's counter and `accepted` together (mutex held). */
    void countOutcomeLocked(Outcome outcome);
    /** Record submit-side latency (entry to response) for requests
     *  answered without ever being queued. */
    void observeSubmitLatency(Outcome outcome, bool timed,
                              std::chrono::steady_clock::time_point entry);

    void workerLoop(unsigned workerIndex);
    void executeJob(Job &job);
    /** The worker body: assigned once in start(); the analyzer's
     *  error-boundary rule audits every throw path under it. */
    std::function<void(Job &job)> onExecute;
    /** Leader finished: deliver @p response to it, answer followers
     *  (with @p run, the leader's record text, spliced into a cached
     *  response when @p error is null, else the same @p error),
     *  release the key. */
    void finishKey(Job &leader, std::string response,
                   const ServiceError *error, std::string_view run = {});
    double backoffHint(unsigned attempt) const;

    /** One kept stream and the classifications of the rows on it. */
    struct KeptStream
    {
        StreamKey key;
        /** Null when not kept: beyond the bound, refused by a replay,
         *  or beyond the sweep's record cap. */
        std::shared_ptr<const TraceSnapshot> stream;
        /** Classifications by classificationKey(). */
        std::map<std::string, Classification> rows;
        /** What the entry counts against kKeptStreamBytes: cost()
         *  when it was last kept. */
        uint64_t bytes = 0;

        uint64_t cost() const;
    };
    /** Keep @p stream (null: drop it) and, when given, @p row's
     *  @p classification under @p key, as the most recently used. */
    void keepStream(const StreamKey &key,
                    std::shared_ptr<const TraceSnapshot> stream,
                    const std::string &row,
                    const Classification *classification);

    ResultStore &store;
    Options opts;

    mutable std::mutex mutex;
    std::condition_variable wake;
    bool draining = false;
    std::vector<std::thread> workers;
    std::deque<Job> queue;
    /** Keys queued or executing -> requests riding the leader. */
    std::map<std::string, std::vector<Job>> followers;
    size_t admitted = 0; ///< leaders queued/executing + followers
    uint64_t executedOrdinal = 0;
    std::map<std::string, unsigned> failureCounts;
    std::set<std::string> poisonedKeys;
    Stats stats;
    /** warn() once, not per snapshot, if the invariant ever breaks. */
    mutable bool conservationWarned = false;

    /** The kept streams, most recently used first, and their index;
     *  keptBytes sums their bytes. */
    std::mutex keptMutex;
    std::list<KeptStream> kept;
    std::map<StreamKey, std::list<KeptStream>::iterator> keptIndex;
    uint64_t keptBytes = 0;

    // Instruments, resolved once in the constructor; all null when
    // opts.metrics is null, making every hook one pointer test.
    std::array<LatencyHistogram *, kOutcomeCount> queueWaitHistograms{};
    std::array<LatencyHistogram *, kOutcomeCount> executeHistograms{};
    MetricCounter *workerBusy = nullptr;
    MetricCounter *workerIdle = nullptr;
    MetricCounter *streamReplays = nullptr;
    MetricCounter *streamRecords = nullptr;
    MetricGauge *streamBytes = nullptr;

    /**
     * Per-worker clamp for queue-wait trace spans: a span on worker
     * w's queue lane must not start before the previous span on that
     * lane ended, or the Perfetto track would interleave (DESIGN.md
     * §16). Element w is touched only by worker w.
     */
    std::vector<std::chrono::steady_clock::time_point> queueSpanFloor;
};

} // namespace specfetch

#endif // SPECFETCH_SERVE_SERVICE_HH_
