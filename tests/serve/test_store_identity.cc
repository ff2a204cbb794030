/**
 * @file
 * Store <-> simulator byte-identity property (DESIGN.md §15): for the
 * full paper grid — 13 workloads × 5 policies × prefetch on/off — the
 * record a SweepService stores and serves is byte-for-byte the record
 * a fresh, serial runSimulation produces. The identity must also hold
 * after a crash-recovery reopen (no clean marker) and after a clean
 * one, or a daemon restart could silently change results.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/miss_classifier.hh"
#include "core/simulator.hh"
#include "metrics/metrics.hh"
#include "report/record.hh"
#include "serve/request.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "serve/store_test_support.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

using namespace specfetch;

namespace {

/** Small budget: the grid is 130 runs, simulated twice. */
constexpr uint64_t kBudget = 20'000;

using StoreIdentity = test::StoreDirTest;

TEST_F(StoreIdentity, GridRecordsMatchSerialSimulation)
{
    std::vector<RunSpec> specs = test::suiteGrid(kBudget);
    SimConfig base;
    base.instructionBudget = kBudget;

    // Reference records: fresh serial simulation, one run at a time,
    // exactly as the report layer would export them.
    std::map<std::string, Classification> classifications;
    std::vector<std::string> expected;
    std::vector<std::string> keys;
    for (const RunSpec &spec : specs) {
        if (!classifications.count(spec.benchmark)) {
            Workload workload = buildWorkload(getProfile(spec.benchmark));
            classifications.emplace(spec.benchmark,
                                    classifyMisses(workload, base));
        }
        Workload workload = buildWorkload(getProfile(spec.benchmark));
        SimResults results = runSimulation(workload, spec.config);
        expected.push_back(
            makeRunRecord(results, spec.config, nullptr,
                          &classifications.at(spec.benchmark))
                .dump());
        keys.push_back(sweepRunKey(spec));
    }

    // Drive the same grid through the service (parallel workers, so
    // the identity also covers scheduling nondeterminism) — with
    // telemetry armed: instrumentation must never change a stored or
    // served byte (DESIGN.md §16).
    MetricsRegistry registry;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    storeOptions.metrics = &registry;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(storeOptions));
        SweepService::Options serviceOptions;
        serviceOptions.workers = 4;
        serviceOptions.queueBound = specs.size();
        serviceOptions.metrics = &registry;
        SweepService service(store, serviceOptions);
        service.start();
        // Each worker writes only its own request's slot, once.
        std::vector<std::string> served(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            JsonValue request = JsonValue::object();
            request.set("benchmark", JsonValue::string(specs[i].benchmark));
            request.set("config", toJson(specs[i].config));
            service.submit(request.dump(), [&served, i](std::string line) {
                served[i] = std::move(line);
            });
        }
        service.drain();
        // 0) Served bytes == fresh serial bytes: "run" is the last
        //    member of an ok response.
        for (size_t i = 0; i < specs.size(); ++i) {
            JsonValue response;
            ASSERT_TRUE(JsonValue::parse(served[i], response)) << served[i];
            EXPECT_EQ(response.find("status")->asString(), "ok");
            const std::string tail = "\"run\":" + expected[i] + "}";
            EXPECT_TRUE(served[i].size() > tail.size() &&
                        served[i].compare(served[i].size() - tail.size(),
                                          tail.size(), tail) == 0)
                << specs[i].benchmark << " run " << i;
        }
        ASSERT_EQ(service.statsSnapshot().executed, specs.size());
        // The instrumentation actually fired while the bytes stayed
        // identical below.
        ASSERT_EQ(service.statsSnapshot().accepted,
                  service.statsSnapshot().outcomeSum());

        // 1) Stored bytes == fresh serial bytes.
        for (size_t i = 0; i < specs.size(); ++i) {
            std::string record;
            ASSERT_TRUE(store.get(keys[i], record)) << keys[i];
            EXPECT_EQ(record, expected[i])
                << specs[i].benchmark << " run " << i;
        }
        // Leaving the scope destroys the store without close(): the
        // same as a crash.
    }
    {
        MetricsSnapshot snapshot = registry.snapshot();
        uint64_t putCount = 0;
        for (const HistogramSnapshot &histogram : snapshot.histograms) {
            if (histogram.name == "store.put_us")
                putCount = histogram.count;
        }
        ASSERT_EQ(putCount, specs.size());
    }

    // 2) Identity survives a crash-recovery reopen.
    ResultStore recovered;
    ASSERT_TRUE(recovered.open(storeOptions));
    EXPECT_TRUE(recovered.stats().recovered);
    ASSERT_EQ(recovered.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string record;
        ASSERT_TRUE(recovered.get(keys[i], record));
        EXPECT_EQ(record, expected[i]) << "after recovery, run " << i;
    }

    // 3) Identity survives a clean close and the reopen after it.
    ASSERT_TRUE(recovered.close());
    ResultStore reopened;
    ASSERT_TRUE(reopened.open(storeOptions));
    EXPECT_FALSE(reopened.stats().recovered);
    ASSERT_EQ(reopened.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        std::string record;
        ASSERT_TRUE(reopened.get(keys[i], record));
        EXPECT_EQ(record, expected[i])
            << "after clean reopen, run " << i;
    }
    ASSERT_TRUE(reopened.close());
}

} // namespace
