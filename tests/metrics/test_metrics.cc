/**
 * @file
 * Metrics primitives (DESIGN.md §16): log-linear bucket mapping
 * properties, sharded counter/histogram exactness under concurrency,
 * registry snapshot shape, and the JSONL flusher's file contract.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics/flusher.hh"
#include "metrics/metrics.hh"
#include "report/json.hh"
#include "report/metrics_record.hh"
#include "report/record.hh"
#include "temp_path.hh"

using namespace specfetch;

namespace {

std::string
tempPath(const char *tag)
{
    return test::tempPath(std::string(tag) + ".jsonl");
}

} // namespace

TEST(HistogramBuckets, SmallValuesGetExactBuckets)
{
    for (uint64_t v = 0; v < LatencyHistogram::kLinearBuckets; ++v) {
        unsigned index = LatencyHistogram::bucketIndex(v);
        EXPECT_EQ(index, v);
        EXPECT_EQ(LatencyHistogram::bucketLowerBound(index), v);
    }
}

TEST(HistogramBuckets, IndexIsMonotonicAndLowerBoundInverts)
{
    // Lower bounds must be strictly increasing, and every bucket's
    // lower bound must map back into that bucket.
    uint64_t previous = 0;
    for (unsigned index = 0; index < LatencyHistogram::kBucketCount;
         ++index) {
        uint64_t lower = LatencyHistogram::bucketLowerBound(index);
        if (index > 0) {
            EXPECT_GT(lower, previous) << "index " << index;
        }
        EXPECT_EQ(LatencyHistogram::bucketIndex(lower), index);
        previous = lower;
    }
}

TEST(HistogramBuckets, RelativeErrorBounded)
{
    // Any value's bucket lower bound is within 1/8 (12.5%) of the
    // value: the bucket width is one sub-bucket step of its magnitude.
    for (uint64_t value : {17ull, 100ull, 999ull, 4096ull, 65537ull,
                           1'000'000ull, 123'456'789ull}) {
        unsigned index = LatencyHistogram::bucketIndex(value);
        uint64_t lower = LatencyHistogram::bucketLowerBound(index);
        uint64_t upper =
            index + 1 < LatencyHistogram::kBucketCount
                ? LatencyHistogram::bucketLowerBound(index + 1) - 1
                : UINT64_MAX;
        EXPECT_LE(lower, value);
        EXPECT_GE(upper, value);
        EXPECT_LE(upper - lower + 1, lower / 8 + 1)
            << "bucket too wide at " << value;
    }
}

TEST(HistogramBuckets, HugeValuesClampIntoTopBucket)
{
    EXPECT_EQ(LatencyHistogram::bucketIndex(UINT64_MAX),
              LatencyHistogram::kBucketCount - 1);
    EXPECT_EQ(LatencyHistogram::bucketIndex(uint64_t(1) << 63),
              LatencyHistogram::kBucketCount - 1);
}

TEST(MetricCounterTest, ConcurrentAddsSumExactly)
{
    MetricCounter counter;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kAddsPerThread = 50'000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (uint64_t i = 0; i < kAddsPerThread; ++i)
                counter.add(1);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(LatencyHistogramTest, ConcurrentObservationsAreAllCounted)
{
    LatencyHistogram histogram;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kObsPerThread = 20'000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&histogram, t] {
            for (uint64_t i = 0; i < kObsPerThread; ++i)
                histogram.observe(i % (100 * (t + 1)));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    HistogramSnapshot snapshot;
    histogram.snapshotInto(snapshot);
    EXPECT_EQ(snapshot.count, kThreads * kObsPerThread);
    uint64_t bucketTotal = 0;
    uint64_t previousLower = 0;
    bool first = true;
    for (const auto &[lower, count] : snapshot.buckets) {
        if (!first) {
            EXPECT_GT(lower, previousLower);
        }
        first = false;
        previousLower = lower;
        EXPECT_GT(count, 0u);
        bucketTotal += count;
    }
    EXPECT_EQ(bucketTotal, snapshot.count);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstruments)
{
    MetricsRegistry registry;
    MetricCounter &a = registry.counter("x");
    MetricCounter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    registry.gauge("g").set(7);
    registry.histogram("h").observe(42);

    MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.counters.size(), 1u);
    EXPECT_EQ(snapshot.counters[0].first, "x");
    EXPECT_EQ(snapshot.counters[0].second, 3u);
    ASSERT_EQ(snapshot.gauges.size(), 1u);
    EXPECT_EQ(snapshot.gauges[0].second, 7u);
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    EXPECT_EQ(snapshot.histograms[0].name, "h");
    EXPECT_EQ(snapshot.histograms[0].count, 1u);
    EXPECT_EQ(snapshot.histograms[0].sum, 42u);
}

TEST(MetricsRecordTest, SerializesCountsAndBuckets)
{
    MetricsRegistry registry;
    registry.counter("c").add(5);
    registry.histogram("h").observe(10);
    registry.histogram("h").observe(100);

    JsonValue record = makeMetricsRecord(
        "unit_test", /*seq=*/2, /*elapsedSeconds=*/1.5, /*final=*/true,
        JsonValue::object(), JsonValue::object(), registry.snapshot());
    EXPECT_EQ(record.find("record")->asString(), "metrics");
    EXPECT_EQ(record.find("seq")->asUint(), 2);
    EXPECT_TRUE(record.find("final")->asBool());
    const JsonValue *counters = record.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("c")->asUint(), 5);
    const JsonValue *histograms = record.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *h = histograms->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->asUint(), 2);
    EXPECT_EQ(h->find("sum_us")->asUint(), 110);
    EXPECT_EQ(h->find("buckets")->size(), 2u);
}

TEST(MetricsFlusherTest, WritesBuilderRecordsAndFinal)
{
    const std::string path = tempPath("flusher");
    MetricsFlusher flusher;
    MetricsFlusher::Options options;
    options.filePath = path;
    options.intervalSeconds = 0.0; // only the final record is periodic
    ASSERT_TRUE(flusher.begin(
        options, [](uint64_t seq, double elapsedSeconds, bool final) {
            JsonValue record = JsonValue::object();
            record.set("schema_version",
                       JsonValue::integer(kReportSchemaVersion))
                .set("record", JsonValue::string("metrics"))
                .set("seq", JsonValue::integer(seq))
                .set("elapsed_seconds", JsonValue::number(elapsedSeconds))
                .set("final", JsonValue::boolean(final));
            return record;
        }));
    JsonValue extra = JsonValue::object();
    extra.set("record", JsonValue::string("store_open"));
    flusher.emitRecord(extra);
    flusher.end();
    flusher.end(); // idempotent

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<JsonValue> rows;
    std::string line;
    while (std::getline(in, line)) {
        JsonValue row;
        ASSERT_TRUE(JsonValue::parse(line, row, nullptr)) << line;
        rows.push_back(std::move(row));
    }
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].find("record")->asString(), "store_open");
    EXPECT_EQ(rows[1].find("record")->asString(), "metrics");
    EXPECT_TRUE(rows[1].find("final")->asBool());
    std::remove(path.c_str());
}
