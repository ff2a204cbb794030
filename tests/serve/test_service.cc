/**
 * @file
 * SweepService tests (DESIGN.md §15): request validation surface,
 * store hits vs. executions, single-flight dedupe, admission control
 * and load shedding, poison quarantine, deadlines, graceful drain,
 * the socket round trip and the batch client's connect retry, and
 * the run record's bytes across every way a response carries it.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hh"
#include "serve/result_store.hh"
#include "serve/service.hh"
#include "serve/socket.hh"
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

/** Collects response lines, parsing each as it arrives; submit() may
 *  answer from a worker thread. */
class Collector
{
  public:
    SweepService::Responder
    responder()
    {
        return [this](std::string line) {
            JsonValue response;
            EXPECT_TRUE(JsonValue::parse(line, response)) << line;
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(std::move(line));
            responses.push_back(std::move(response));
            arrived.notify_all();
        };
    }

    std::vector<JsonValue>
    waitFor(size_t count)
    {
        std::unique_lock<std::mutex> lock(mutex);
        arrived.wait(lock,
                     [&] { return responses.size() >= count; });
        return responses;
    }

    /** The lines as delivered, in arrival order. */
    std::vector<std::string>
    rawLines()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return lines;
    }

  private:
    std::mutex mutex;
    std::condition_variable arrived;
    std::vector<std::string> lines;
    std::vector<JsonValue> responses;
};

/** The text after @p member's name up to the end of @p line's object:
 *  the raw bytes of a last member, such as a response's "run" or a
 *  data frame's "record". */
std::string
lastMemberText(const std::string &line, const std::string &member)
{
    const std::string marker = ",\"" + member + "\":";
    size_t at = line.find(marker);
    if (at == std::string::npos || line.empty() || line.back() != '}')
        return "";
    at += marker.size();
    return line.substr(at, line.size() - 1 - at);
}

std::string
statusOf(const JsonValue &response)
{
    const JsonValue *status = response.find("status");
    return status ? status->asString() : "";
}

std::string
errorTypeOf(const JsonValue &response)
{
    const JsonValue *error = response.find("error");
    if (!error)
        return "";
    const JsonValue *type = error->find("type");
    return type ? type->asString() : "";
}

class ServiceTest : public test::StoreDirTest
{
  protected:
    void
    SetUp() override
    {
        StoreDirTest::SetUp();
        ResultStore::Options storeOptions;
        storeOptions.dir = dir;
        ASSERT_TRUE(store.open(storeOptions));
    }

    void
    TearDown() override
    {
        store.close();
        StoreDirTest::TearDown();
    }

    ResultStore store;
};

TEST_F(ServiceTest, TypedErrorsNeverCrash)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit("not json at all", collector.responder());
    service.submit("[1,2,3]", collector.responder());
    service.submit("{\"id\":9,\"benchmark\":\"no-such\"}",
                   collector.responder());
    service.submit("{\"id\":10,\"benchmark\":\"gcc\",\"bogus\":1}",
                   collector.responder());
    service.submit("{\"id\":11,\"benchmark\":\"gcc\","
                   "\"config\":{\"no_such_member\":1}}",
                   collector.responder());
    service.submit("{\"id\":12,\"benchmark\":\"gcc\","
                   "\"config\":{\"issue_width\":0}}",
                   collector.responder());
    // One line nested 100,000 deep (200 KB) must not take the parser's
    // stack with it.
    service.submit("{\"id\":" + std::string(100'000, '[') +
                       std::string(100'000, ']') + "}",
                   collector.responder());
    auto responses = collector.waitFor(7);
    EXPECT_EQ(errorTypeOf(responses[0]), "malformed_json");
    EXPECT_EQ(errorTypeOf(responses[1]), "malformed_json");
    EXPECT_EQ(errorTypeOf(responses[2]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[3]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[4]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[5]), "bad_request");
    EXPECT_EQ(errorTypeOf(responses[6]), "malformed_json");
    // Rejections echo the id they could salvage.
    const JsonValue *id = responses[2].find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->asUint(), 9u);
    service.drain();
    EXPECT_EQ(service.statsSnapshot().rejected, 7u);
    EXPECT_EQ(service.statsSnapshot().executed, 0u);
}

TEST_F(ServiceTest, MissExecutesThenHitServes)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    auto first = collector.waitFor(1);
    ASSERT_EQ(statusOf(first[0]), "ok");
    EXPECT_FALSE(first[0].find("cached")->asBool());
    const JsonValue *run = first[0].find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_NE(run->find("counters"), nullptr);

    service.submit(request(2, "li"), collector.responder());
    auto second = collector.waitFor(2);
    ASSERT_EQ(statusOf(second[1]), "ok");
    EXPECT_TRUE(second[1].find("cached")->asBool());
    EXPECT_EQ(*second[1].find("run"), *run);
    service.drain();

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(store.size(), 1u);
}

TEST_F(ServiceTest, SingleFlightDedupe)
{
    // Gate the worker so duplicates pile up behind one leader.
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> executionsStarted{0};

    SweepService::Options options;
    options.workers = 2;
    options.testBeforeExecute = [&] {
        ++executionsStarted;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    for (uint64_t i = 0; i < 5; ++i)
        service.submit(request(i, "li"), collector.responder());
    while (executionsStarted.load() == 0)
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(5);
    service.drain();

    for (const JsonValue &response : responses)
        EXPECT_EQ(statusOf(response), "ok");
    SweepService::Stats stats = service.statsSnapshot();
    // One execution, held until every duplicate had ridden it.
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.deduped, 4u);
    EXPECT_EQ(executionsStarted.load(), 1u);
    // The leader (the first request) answers uncached; the riders
    // answer cached although they waited for its simulation.
    for (const JsonValue &response : responses) {
        EXPECT_EQ(response.find("cached")->asBool(),
                  response.find("id")->asUint() != 0)
            << response.dump();
    }
}

TEST_F(ServiceTest, RunBytesMatchAcrossExecutionRiderHitAndReopen)
{
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> executionsStarted{0};

    SweepService::Options options;
    options.workers = 2;
    options.testBeforeExecute = [&] {
        ++executionsStarted;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    Collector collector;
    {
        SweepService service(store, options);
        service.start();
        // A leader and two riders, held until all three are admitted.
        for (uint64_t i = 0; i < 3; ++i)
            service.submit(request(i, "li"), collector.responder());
        while (executionsStarted.load() == 0)
            std::this_thread::yield();
        {
            std::lock_guard<std::mutex> lock(gateMutex);
            gateOpen = true;
        }
        gateCv.notify_all();
        collector.waitFor(3);
        service.submit(request(3, "li"), collector.responder()); // hit
        collector.waitFor(4);
        service.drain();
        SweepService::Stats stats = service.statsSnapshot();
        EXPECT_EQ(stats.executed, 1u);
        EXPECT_EQ(stats.deduped, 2u);
        EXPECT_EQ(stats.hits, 1u);
    }
    ASSERT_TRUE(store.close());

    ResultStore reopened;
    ResultStore::Options storeOptions;
    storeOptions.dir = dir;
    ASSERT_TRUE(reopened.open(storeOptions));
    {
        SweepService service(reopened, {});
        service.start();
        service.submit(request(4, "li"), collector.responder());
        collector.waitFor(5);
        service.drain();
        EXPECT_EQ(service.statsSnapshot().hits, 1u);
    }
    ASSERT_TRUE(reopened.close());

    // The record as the segment holds it: the header, then one frame.
    std::ifstream in(dir + "/tail-1-1.log", std::ios::binary);
    std::string header;
    std::string frame;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, frame));
    const std::string stored = lastMemberText(frame, "record");
    ASSERT_FALSE(stored.empty()) << frame;

    std::vector<std::string> lines = collector.rawLines();
    ASSERT_EQ(lines.size(), 5u);
    size_t executed = 0;
    for (const std::string &line : lines) {
        EXPECT_EQ(lastMemberText(line, "run"), stored) << line;
        executed += line.find(",\"cached\":false,") != std::string::npos;
    }
    EXPECT_EQ(executed, 1u);
}

TEST_F(ServiceTest, OverloadShedsBeyondQueueBound)
{
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> started{0};

    SweepService::Options options;
    options.workers = 1;
    options.queueBound = 3;
    options.testBeforeExecute = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    // Distinct keys so nothing dedupes: only queueBound are admitted.
    const char *benchmarks[] = {"li", "gcc", "tex", "doduc",
                                "groff", "idl"};
    for (uint64_t i = 0; i < 6; ++i)
        service.submit(request(i, benchmarks[i]), collector.responder());
    while (started.load() == 0)
        std::this_thread::yield();

    // The overflow was answered immediately with backoff hints.
    auto early = collector.waitFor(3);
    size_t shed = 0;
    for (const JsonValue &response : early) {
        if (statusOf(response) != "error")
            continue;
        EXPECT_EQ(errorTypeOf(response), "overloaded");
        const JsonValue *backoff =
            response.find("error")->find("backoff_seconds");
        ASSERT_NE(backoff, nullptr);
        EXPECT_GT(backoff->asDouble(), 0.0);
        ++shed;
    }
    EXPECT_EQ(shed, 3u);

    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(6);
    service.drain();

    size_t completed = 0;
    for (const JsonValue &response : responses) {
        if (statusOf(response) == "ok")
            ++completed;
    }
    // Everything admitted completed; everything shed stayed shed.
    EXPECT_EQ(completed, 3u);
    EXPECT_EQ(service.statsSnapshot().shed, 3u);
    EXPECT_EQ(service.statsSnapshot().executed, 3u);
}

TEST_F(ServiceTest, PoisonAfterRepeatedFailures)
{
    SweepService::Options options;
    options.guard.maxAttempts = 1;
    options.poisonThreshold = 2;
    FaultInjector injector;
    // Every executed-run ordinal throws on every attempt.
    ASSERT_TRUE(FaultInjector::parse(
        "throw@0x*,throw@1x*,throw@2x*,throw@3x*", injector));
    options.guard.injector = &injector;
    SweepService service(store, options);
    service.start();
    Collector collector;

    service.submit(request(1, "li"), collector.responder());
    auto first = collector.waitFor(1);
    EXPECT_EQ(errorTypeOf(first[0]), "run_failed");
    const JsonValue *attempts = first[0].find("error")->find("attempts");
    ASSERT_NE(attempts, nullptr);
    EXPECT_EQ(attempts->asUint(), 1u);

    service.submit(request(2, "li"), collector.responder());
    auto second = collector.waitFor(2);
    EXPECT_EQ(errorTypeOf(second[1]), "poisoned");

    // Once poisoned, the key is refused without executing.
    service.submit(request(3, "li"), collector.responder());
    auto third = collector.waitFor(3);
    EXPECT_EQ(errorTypeOf(third[2]), "poisoned");
    service.drain();

    SweepService::Stats stats = service.statsSnapshot();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.poisoned, 2u);
    EXPECT_EQ(store.size(), 0u);
}

TEST_F(ServiceTest, DeadlineExpiryAnswersWithBackoff)
{
    std::mutex gateMutex;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::atomic<unsigned> started{0};

    SweepService::Options options;
    options.workers = 1;
    options.requestDeadlineSeconds = 0.05;
    options.testBeforeExecute = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(gateMutex);
        gateCv.wait(lock, [&] { return gateOpen; });
    };
    SweepService service(store, options);
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    service.submit(request(2, "gcc"), collector.responder());
    while (started.load() == 0)
        std::this_thread::yield();
    // Hold the worker until the queued request's deadline expires.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    {
        std::lock_guard<std::mutex> lock(gateMutex);
        gateOpen = true;
    }
    gateCv.notify_all();
    auto responses = collector.waitFor(2);
    service.drain();

    size_t expired = 0;
    for (const JsonValue &response : responses) {
        if (errorTypeOf(response) == "deadline_exceeded") {
            const JsonValue *backoff =
                response.find("error")->find("backoff_seconds");
            ASSERT_NE(backoff, nullptr);
            EXPECT_GT(backoff->asDouble(), 0.0);
            ++expired;
        }
    }
    EXPECT_EQ(expired, 1u);
    EXPECT_EQ(service.statsSnapshot().expired, 1u);
}

TEST_F(ServiceTest, DrainRefusesNewWorkAndFinishesAdmitted)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    collector.waitFor(1);
    service.drain();

    service.submit(request(2, "gcc"), collector.responder());
    auto responses = collector.waitFor(2);
    EXPECT_EQ(errorTypeOf(responses[1]), "shutting_down");
    EXPECT_EQ(service.statsSnapshot().executed, 1u);

    // Drained service + closed store = durable, clean shutdown.
    EXPECT_TRUE(store.close());
}

TEST_F(ServiceTest, HealthMembersExposeCounters)
{
    SweepService service(store, {});
    service.start();
    Collector collector;
    service.submit(request(1, "li"), collector.responder());
    collector.waitFor(1);
    service.drain();

    JsonValue row = service.serviceStatsJson();
    ASSERT_NE(row.find("requests"), nullptr);
    EXPECT_EQ(row.find("requests")->asUint(), 1u);
    EXPECT_EQ(row.find("executed")->asUint(), 1u);
    ASSERT_NE(row.find("queue_depth"), nullptr);
    EXPECT_EQ(row.find("queue_depth")->asUint(), 0u);
    ASSERT_NE(row.find("inflight"), nullptr);
    EXPECT_EQ(row.find("inflight")->asUint(), 0u);
}

TEST_F(ServiceTest, SocketRoundTripInRequestOrder)
{
    SweepService::Options options;
    options.workers = 2;
    SweepService service(store, options);
    service.start();

    std::string socketPath = dir + ".sock";
    UnixSocketServer listener;
    std::string error;
    ASSERT_TRUE(listener.listen(socketPath, &error)) << error;

    std::atomic<bool> stop{false};
    std::thread acceptor([&] {
        int client = listener.accept(/*pollSeconds=*/5.0);
        ASSERT_GE(client, 0);
        serveStream(client, client, service, &stop);
        ::close(client);
    });

    // Mixed batch: two real runs, a duplicate, and two rejects.
    std::vector<std::string> requests = {
        request(0, "li"),
        "garbage",
        request(2, "gcc"),
        request(3, "li"),
        "{\"id\":4,\"benchmark\":\"no-such\"}",
    };
    std::vector<std::string> responses;
    ASSERT_TRUE(serviceBatch(socketPath, requests, responses, &error))
        << error;
    acceptor.join();
    listener.close();
    service.drain();

    ASSERT_EQ(responses.size(), requests.size());
    // Responses land in request order regardless of completion order.
    for (size_t i = 0; i < responses.size(); ++i) {
        JsonValue response;
        ASSERT_TRUE(JsonValue::parse(responses[i], response));
        const JsonValue *id = response.find("id");
        if (id && id->isUint()) {
            EXPECT_EQ(id->asUint(), i);
        }
        EXPECT_EQ(statusOf(response), i == 1 || i == 4 ? "error" : "ok");
    }
    EXPECT_EQ(service.statsSnapshot().executed, 2u);
    EXPECT_EQ(service.statsSnapshot().deduped +
                  service.statsSnapshot().hits,
              1u);
}

TEST_F(ServiceTest, BatchWaitsForALateListener)
{
    SweepService::Options options;
    options.workers = 2;
    SweepService service(store, options);
    service.start();

    // A socket file nobody listens on, as a crashed daemon leaves it:
    // connect is refused until the late listener replaces it.
    std::string socketPath = dir + ".sock";
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        ASSERT_LT(socketPath.size(), sizeof(addr.sun_path));
        std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size());
        int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(stale, 0);
        ::unlink(socketPath.c_str());
        ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(stale);
    }

    UnixSocketServer listener;
    std::atomic<bool> stop{false};
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        std::string listenError;
        ASSERT_TRUE(listener.listen(socketPath, &listenError))
            << listenError;
        int client = listener.accept(/*pollSeconds=*/5.0);
        ASSERT_GE(client, 0);
        serveStream(client, client, service, &stop);
        ::close(client);
    });

    std::vector<std::string> requests = {request(0, "li"), "garbage",
                                         request(2, "gcc"),
                                         request(3, "li")};
    std::vector<std::string> responses;
    std::string error;
    const bool ok = serviceBatch(socketPath, requests, responses, &error);
    late.join();
    listener.close();
    service.drain();

    ASSERT_TRUE(ok) << error;
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
        JsonValue response;
        ASSERT_TRUE(JsonValue::parse(responses[i], response));
        EXPECT_EQ(statusOf(response), i == 1 ? "error" : "ok");
        if (i != 1) {
            EXPECT_EQ(response.find("id")->asUint(), i);
        }
    }
}

TEST_F(ServiceTest, BatchGivesUpWithoutAListener)
{
    const std::string socketPath = dir + ".sock";
    ::unlink(socketPath.c_str());
    std::vector<std::string> responses;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(
        serviceBatch(socketPath, {request(0, "li")}, responses, &error));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // It backed off for its whole budget, then gave up.
    EXPECT_GE(elapsed, std::chrono::seconds(2));
    EXPECT_LT(elapsed, std::chrono::seconds(3));
    EXPECT_NE(error.find("connect"), std::string::npos) << error;
    EXPECT_NE(error.find("attempts"), std::string::npos) << error;
    EXPECT_TRUE(responses.empty());
}

} // namespace
