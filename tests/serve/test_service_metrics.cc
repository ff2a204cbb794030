/**
 * @file
 * Service telemetry tests (DESIGN.md §16): the `{"op":"stats"}`
 * control request, instrument population on the request path, and the
 * outcome conservation invariant
 *
 *   accepted == hits + executed + deduped + shed + expired
 *               + poisoned + failed + rejected
 *
 * which must hold at *every* snapshot taken while a duplicate-heavy
 * concurrent batch is in flight, not just after drain.
 */

#include <gtest/gtest.h>


#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "serve/store_test_support.hh"

using namespace specfetch;

namespace {

/** Tiny budget: a service execution is a real simulation. */
constexpr uint64_t kBudget = 20'000;

std::string
request(uint64_t id, const std::string &benchmark,
        const std::string &configMembers = "")
{
    std::string config = "{\"instruction_budget\":" +
                         std::to_string(kBudget) +
                         (configMembers.empty() ? "" : "," + configMembers) +
                         "}";
    return "{\"id\":" + std::to_string(id) + ",\"benchmark\":\"" +
           benchmark + "\",\"config\":" + config + "}";
}

/** Collects response lines, parsing each as it arrives. */
class Collector
{
  public:
    SweepService::Responder
    responder()
    {
        return [this](const std::string &line) {
            JsonValue response;
            EXPECT_TRUE(JsonValue::parse(line, response)) << line;
            std::lock_guard<std::mutex> lock(mutex);
            responses.push_back(std::move(response));
            arrived.notify_all();
        };
    }

    std::vector<JsonValue>
    waitFor(size_t count)
    {
        std::unique_lock<std::mutex> lock(mutex);
        arrived.wait(lock, [&] { return responses.size() >= count; });
        return responses;
    }

  private:
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<JsonValue> responses;
};

uint64_t
member(const JsonValue &row, const char *name)
{
    const JsonValue *value = row.find(name);
    EXPECT_NE(value, nullptr) << name;
    return value ? value->asUint() : 0;
}

/** The invariant's right side, from a serialized service object. */
uint64_t
outcomeSumOf(const JsonValue &service)
{
    return member(service, "hits") + member(service, "executed") +
           member(service, "deduped") + member(service, "shed") +
           member(service, "expired") + member(service, "poisoned") +
           member(service, "failed") + member(service, "rejected");
}

class ServiceMetricsTest : public test::StoreDirTest
{
  protected:
    void
    SetUp() override
    {
        StoreDirTest::SetUp();
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        storeOptions.metrics = &registry;
        ASSERT_TRUE(store.open(storeOptions));
    }

    void
    TearDown() override
    {
        store.close();
        StoreDirTest::TearDown();
    }

    MetricsRegistry registry;
    ResultStore store;
};

} // namespace

TEST_F(ServiceMetricsTest, StatsOpAnswersWithoutTouchingTheStore)
{
    SweepService::Options options;
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit("{\"id\":42,\"op\":\"stats\"}",
                   collector.responder());
    auto responses = collector.waitFor(1);
    service.drain();

    const JsonValue &response = responses[0];
    EXPECT_EQ(response.find("status")->asString(), "ok");
    EXPECT_EQ(response.find("id")->asUint(), 42u);
    const JsonValue *stats = response.find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue *serviceStats = stats->find("service");
    ASSERT_NE(serviceStats, nullptr);
    EXPECT_EQ(member(*serviceStats, "requests"), 1u);
    EXPECT_EQ(member(*serviceStats, "stats_ops"), 1u);
    EXPECT_EQ(member(*serviceStats, "accepted"), 0u);
    EXPECT_TRUE(serviceStats->find("conserved")->asBool());
    ASSERT_NE(stats->find("store"), nullptr);
    EXPECT_EQ(member(*stats->find("store"), "records"), 0u);
    // The registry sections exist even before any request fired an
    // instrument; the store's open already shows, once.
    EXPECT_NE(stats->find("counters"), nullptr);
    EXPECT_NE(stats->find("gauges"), nullptr);
    const JsonValue *histograms = stats->find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *opened = histograms->find("store.open_us");
    ASSERT_NE(opened, nullptr);
    EXPECT_EQ(member(*opened, "count"), 1u);
    // No run was looked up, executed, or stored.
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(service.statsSnapshot().accepted, 0u);
}

TEST_F(ServiceMetricsTest, StatsOpWorksWithoutARegistry)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit("{\"op\":\"stats\"}", collector.responder());
    auto responses = collector.waitFor(1);
    service.drain();
    const JsonValue *stats = responses[0].find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->find("service"), nullptr);
    EXPECT_NE(stats->find("counters"), nullptr);
    EXPECT_EQ(stats->find("counters")->members().size(), 0u);
}

TEST_F(ServiceMetricsTest, RequestPathPopulatesInstruments)
{
    SweepService::Options options;
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder()); // miss
    collector.waitFor(1);
    service.submit(request(2, "li"), collector.responder()); // hit
    collector.waitFor(2);
    service.submit("not json", collector.responder()); // rejected
    collector.waitFor(3);
    service.drain();

    MetricsSnapshot snapshot = registry.snapshot();
    auto histogramCount = [&](const std::string &name) -> uint64_t {
        for (const HistogramSnapshot &h : snapshot.histograms) {
            if (h.name == name)
                return h.count;
        }
        return 0;
    };
    std::map<std::string, uint64_t> gauges(snapshot.gauges.begin(),
                                           snapshot.gauges.end());
    EXPECT_EQ(histogramCount("service.execute_us.executed"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.executed"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.hit"), 1u);
    EXPECT_EQ(histogramCount("service.queue_wait_us.rejected"), 1u);
    EXPECT_EQ(histogramCount("store.open_us"), 1u);
    EXPECT_EQ(histogramCount("store.put_us"), 1u);
    EXPECT_GE(histogramCount("store.get_us"), 2u); // hit + rider-free get
    EXPECT_GE(histogramCount("store.fsync_us"), 1u);
    // Only what no record member carries is a gauge: the pool size,
    // the append tail's bytes and the kept streams' bytes (the miss
    // recorded li's stream and kept it).
    EXPECT_EQ(gauges.size(), 3u);
    EXPECT_EQ(gauges["service.workers"], 1u);
    EXPECT_GT(gauges["store.tail_bytes"], 0u);
    EXPECT_GT(gauges["service.stream_bytes"], 0u);
    EXPECT_LE(gauges["service.stream_bytes"],
              SweepService::kKeptStreamBytes);

    // The worker spent measurable time on both sides of the loop.
    uint64_t busy = 0;
    uint64_t idle = 0;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "service.worker_busy_us")
            busy = value;
        if (name == "service.worker_idle_us")
            idle = value;
    }
    EXPECT_GT(busy, 0u);
    EXPECT_GT(idle, 0u);

    JsonValue body = service.telemetryBody();
    EXPECT_EQ(member(*body.find("service"), "accepted"), 3u);
    EXPECT_EQ(member(*body.find("service"), "stats_ops"), 0u);
    EXPECT_EQ(member(*body.find("store"), "records"), 1u);
}

TEST_F(ServiceMetricsTest, ConservationHoldsAtEverySnapshotUnderLoad)
{
    SweepService::Options options;
    options.workers = 3;
    options.queueBound = 8; // small: force real shedding
    options.metrics = &registry;
    SweepService service(store, options);
    service.start();

    // A duplicate-heavy mixed batch: 4 submitter threads hammer a
    // 3-key space (dedupe + hits), sprinkle malformed lines (rejected)
    // and stats ops, while a sampler thread checks the invariant on
    // both the typed snapshot and the serialized stats body.
    constexpr unsigned kSubmitters = 4;
    constexpr unsigned kPerThread = 40;
    const char *benchmarks[] = {"li", "gcc", "tex"};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> violations{0};
    std::atomic<uint64_t> samples{0};

    std::thread sampler([&] {
        while (!done.load()) {
            SweepService::Stats stats = service.statsSnapshot();
            if (stats.accepted != stats.outcomeSum())
                violations.fetch_add(1);
            JsonValue body = service.serviceStatsJson();
            if (member(body, "accepted") != outcomeSumOf(body) ||
                !body.find("conserved")->asBool())
                violations.fetch_add(1);
            samples.fetch_add(1);
        }
    });

    Collector collector;
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                if (i % 13 == 5) {
                    service.submit("broken {", collector.responder());
                } else if (i % 17 == 7) {
                    service.submit("{\"op\":\"stats\"}",
                                   collector.responder());
                } else {
                    service.submit(
                        request(t * 1000 + i, benchmarks[i % 3]),
                        collector.responder());
                }
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    collector.waitFor(kSubmitters * kPerThread);
    service.drain();
    done.store(true);
    sampler.join();

    EXPECT_GT(samples.load(), 0u);
    EXPECT_EQ(violations.load(), 0u);

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.requests, kSubmitters * kPerThread);
    // Every non-control request ended in exactly one outcome class.
    EXPECT_EQ(stats.accepted, stats.outcomeSum());
    EXPECT_EQ(stats.requests, stats.accepted + stats.statsOps);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.executed, 3u); // one real run per distinct key
    EXPECT_GT(stats.hits + stats.deduped, 0u);
}
