/**
 * @file
 * The sweep daemon (DESIGN.md §15): a crash-safe result store behind
 * a SweepService, serving JSONL requests over a Unix-domain socket or
 * stdin/stdout.
 *
 *   # one-shot, stdio transport
 *   printf '%s\n' '{"id":1,"benchmark":"gcc"}' | sweep_serve --store dir
 *
 *   # daemon, socket transport
 *   sweep_serve --store dir --socket /tmp/sweep.sock --workers 4 &
 *   tools/sweep_client.py --socket /tmp/sweep.sock requests.jsonl
 *
 * SIGTERM/SIGINT drain gracefully: intake stops, admitted requests
 * finish and are answered, the store is fsync'd and closed with its
 * clean-shutdown marker. kill -9 at any instant is also survivable —
 * the next open replays the segments and loses at most the put that
 * was in flight.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fault/injector.hh"
#include "metrics/flusher.hh"
#include "metrics/metrics.hh"
#include "obs/trace_event.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "serve/socket.hh"
#include "util/logging.hh"
#include "util/options.hh"

using namespace specfetch;

namespace {

std::atomic<bool> gStop{false};

extern "C" void
stopSignalHandler(int)
{
    gStop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    OptionParser opts("sweep_serve",
                      "Serve sweep requests from a crash-safe result "
                      "store (JSONL over stdio or a Unix socket)");
    opts.addString("store", "", "result store directory (required)");
    opts.addString("socket", "",
                   "Unix-domain socket path (default: serve stdin/stdout "
                   "once and exit)");
    opts.addCount("workers", 2, "simulation worker threads");
    opts.addCount("queue-bound", 64,
                  "admitted-request bound; excess requests are shed "
                  "with an 'overloaded' error");
    opts.addCount("retries", 3, "attempts per run before it fails");
    opts.addDouble("backoff", 0.05, "retry/backoff-hint base (seconds)");
    opts.addDouble("run-timeout", 0.0,
                   "per-run watchdog budget in seconds (0 = none)");
    opts.addDouble("request-deadline", 0.0,
                   "per-request deadline from admission in seconds "
                   "(0 = none)");
    opts.addCount("poison-threshold", 3,
                  "terminal failures before a key is quarantined");
    opts.addSize("max-segment-bytes", 4 * 1024 * 1024,
                 "rotate the store's append segment past this size");
    opts.addString("fault-inject", "",
                   "fault spec (see --help of bench_suite); indices name "
                   "executed-run ordinals for run faults and put ordinals "
                   "for store faults");
    opts.addString("metrics-out", "",
                   "write schema-v1 'metrics' JSONL snapshots here "
                   "(counters, gauges, latency histograms)");
    opts.addDouble("metrics-interval", 2.0,
                   "metrics snapshot period (seconds)");
    opts.addString("trace-out", "",
                   "write a Chrome trace-event JSON file with one "
                   "queue+execute span pair per executed request");
    if (!opts.parse(argc, argv))
        return 1;
    if (opts.getString("store").empty()) {
        std::fprintf(stderr, "sweep_serve: --store is required\n");
        return 1;
    }

    FaultInjector injector;
    std::string faultError;
    if (!FaultInjector::parse(opts.getString("fault-inject"), injector,
                              &faultError)) {
        std::fprintf(stderr, "sweep_serve: %s\n", faultError.c_str());
        return 1;
    }
    if (injector.empty() &&
        !FaultInjector::fromEnv(injector, &faultError)) {
        std::fprintf(stderr, "sweep_serve: %s\n", faultError.c_str());
        return 1;
    }

    // The registry is always live so an `{"op":"stats"}` request works
    // without any flag; a disabled --metrics-out only skips the file.
    MetricsRegistry metrics;

    // Tracing must be on before the workers start so their first
    // dequeue already records spans.
    const std::string traceOut = opts.getString("trace-out");
    if (!traceOut.empty())
        TraceEventSink::global().open(traceOut);

    ResultStore::Options storeOptions;
    storeOptions.dir = opts.getString("store");
    storeOptions.maxSegmentBytes = opts.getSize("max-segment-bytes");
    storeOptions.metrics = &metrics;
    if (!injector.empty())
        storeOptions.injector = &injector;
    ResultStore store;
    std::string error;
    if (!store.open(storeOptions, &error)) {
        std::fprintf(stderr, "sweep_serve: %s\n", error.c_str());
        return 1;
    }
    ResultStore::Stats storeStats = store.stats();
    std::fprintf(stderr, "sweep_serve: store '%s' open: %llu records%s%s\n",
                 storeOptions.dir.c_str(),
                 static_cast<unsigned long long>(storeStats.records),
                 storeStats.recovered ? ", recovered (no valid clean marker)"
                                      : "",
                 storeStats.tornTail ? ", dropped a torn tail line" : "");
    if (storeStats.corruptFrames > 0) {
        std::fprintf(stderr,
                     "sweep_serve: quarantined %llu corrupt frames "
                     "(see %s/%s)\n",
                     static_cast<unsigned long long>(
                         storeStats.corruptFrames),
                     storeOptions.dir.c_str(), kStoreQuarantineFile);
    }

    SweepService::Options serviceOptions;
    serviceOptions.workers =
        static_cast<unsigned>(opts.getCount("workers"));
    serviceOptions.queueBound =
        static_cast<size_t>(opts.getCount("queue-bound"));
    serviceOptions.maxAttempts =
        static_cast<unsigned>(opts.getCount("retries"));
    serviceOptions.backoffBaseSeconds = opts.getDouble("backoff");
    serviceOptions.runTimeoutSeconds = opts.getDouble("run-timeout");
    serviceOptions.requestDeadlineSeconds =
        opts.getDouble("request-deadline");
    serviceOptions.poisonThreshold =
        static_cast<unsigned>(opts.getCount("poison-threshold"));
    if (!injector.empty())
        serviceOptions.injector = &injector;
    serviceOptions.metrics = &metrics;
    SweepService service(store, serviceOptions);

    MetricsFlusher flusher;
    if (!opts.getString("metrics-out").empty()) {
        MetricsFlusher::Options flusherOptions;
        flusherOptions.filePath = opts.getString("metrics-out");
        flusherOptions.intervalSeconds = opts.getDouble("metrics-interval");
        if (flusher.begin(flusherOptions,
                          [&service](uint64_t seq, double elapsedSeconds,
                                     bool final) {
                              return service.metricsRecord(
                                  "sweep_serve", seq, elapsedSeconds,
                                  final);
                          })) {
            // The first record in the file is the open-time recovery
            // summary, so any log starts with what the store found;
            // a seq-0 snapshot follows at once, so even a daemon that
            // dies before its first interval leaves a metrics record.
            flusher.emitRecord(store.openSummaryRecord());
            flusher.flush();
        }
    }

    std::signal(SIGTERM, stopSignalHandler);
    std::signal(SIGINT, stopSignalHandler);
    std::signal(SIGPIPE, SIG_IGN);

    service.start();

    const std::string socketPath = opts.getString("socket");
    if (socketPath.empty()) {
        serveStream(STDIN_FILENO, STDOUT_FILENO, service, &gStop);
    } else {
        UnixSocketServer listener;
        if (!listener.listen(socketPath, &error)) {
            std::fprintf(stderr, "sweep_serve: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "sweep_serve: listening on %s\n",
                     socketPath.c_str());
        MetricCounter &accepts = metrics.counter("socket.accepts");
        std::vector<std::thread> connections;
        while (!gStop.load()) {
            int client = listener.accept(/*pollSeconds=*/0.2);
            if (client < 0)
                continue;
            accepts.add(1);
            connections.emplace_back([client, &service] {
                serveStream(client, client, service, &gStop);
                ::close(client);
            });
        }
        listener.close();
        for (std::thread &connection : connections)
            connection.join();
    }

    // Graceful drain: finish admitted work, answer it, then make the
    // store durable with its clean-shutdown marker.
    service.drain();
    flusher.end();
    if (!traceOut.empty())
        TraceEventSink::global().close();
    if (!store.close(&error)) {
        std::fprintf(stderr, "sweep_serve: close: %s\n", error.c_str());
        return 1;
    }
    SweepService::Stats stats = service.statsSnapshot();
    std::fprintf(stderr,
                 "sweep_serve: done: %llu requests, %llu hits, "
                 "%llu deduped, %llu executed, %llu shed, %llu failed\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.deduped),
                 static_cast<unsigned long long>(stats.executed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.failed));
    return 0;
}
