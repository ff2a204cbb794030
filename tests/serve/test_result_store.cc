/**
 * @file
 * ResultStore tests (DESIGN.md §15): durability round trips, clean
 * vs. recovered opens (a clean-shutdown marker that disagrees with the
 * segments, a session that ended without close() and a torn rewrite of
 * the marker included), the one-handle directory lock, refusal of files
 * the store would misread, torn-tail and corrupt-frame handling, the
 * quarantine sidecar, segment rotation, injected write failures, and a
 * SIGTERM or an injected crash losing no acknowledged put.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "metrics/metrics.hh"
#include "serve/result_store.hh"
#include "serve/store_test_support.hh"
#include "util/logging.hh"

using namespace specfetch;

namespace {

class ResultStoreTest : public test::StoreDirTest
{
  protected:
    using Keys = std::vector<std::string>;

    std::vector<std::string>
    listFiles() const
    {
        std::vector<std::string> names;
        if (DIR *handle = opendir(dir.c_str())) {
            while (struct dirent *entry = readdir(handle)) {
                std::string name = entry->d_name;
                if (name != "." && name != "..")
                    names.push_back(name);
            }
            closedir(handle);
        }
        return names;
    }

    bool
    fileExists(const std::string &name) const
    {
        struct stat info;
        return stat((dir + "/" + name).c_str(), &info) == 0;
    }

    /** The first append segment: where seed() puts its records. */
    std::string tailPath() const { return dir + "/tail-1-1.log"; }

    static std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    static void
    spill(const std::string &path, const std::string &content)
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    }

    /** Make @p content the bytes of @p path as a rewrite in place
     *  leaves them (the file keeps its inode and block). */
    static void
    overwrite(const std::string &path, const std::string &content)
    {
        int fd = ::open(path.c_str(), O_WRONLY);
        ASSERT_GE(fd, 0) << path;
        EXPECT_EQ(pwrite(fd, content.data(), content.size(), 0),
                  static_cast<ssize_t>(content.size()));
        EXPECT_EQ(ftruncate(fd, static_cast<off_t>(content.size())), 0);
        ::close(fd);
    }

    /** The inode of @p name in the store directory (0 when absent). */
    ino_t
    inodeOf(const std::string &name) const
    {
        struct stat info;
        return stat((dir + "/" + name).c_str(), &info) == 0 ? info.st_ino
                                                            : 0;
    }

    /** What planning the directory as it stands would report. */
    OpenPlan
    planNow() const
    {
        return planOpen(readStoreFiles(dir).value());
    }

    /** The keys @p store holds, in key order. */
    static Keys
    keysOf(const ResultStore &store)
    {
        Keys keys;
        store.forEach([&](const std::string &key, const std::string &) {
            keys.push_back(key);
        });
        return keys;
    }

    JsonValue
    record(uint64_t value)
    {
        JsonValue out = JsonValue::object();
        out.set("record", JsonValue::string("run"));
        out.set("value", JsonValue::integer(value));
        return out;
    }

    ResultStore::Options
    options(const FaultInjector *injector = nullptr)
    {
        ResultStore::Options opts;
        opts.dir = dir;
        opts.injector = injector;
        return opts;
    }

    /** Populate a store with @p count records and close it cleanly. */
    void
    seed(size_t count)
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        for (size_t i = 0; i < count; ++i) {
            ASSERT_TRUE(
                store.put("key" + std::to_string(i), record(i)));
        }
        ASSERT_TRUE(store.close());
    }
};

TEST_F(ResultStoreTest, PutGetRoundTrip)
{
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.open(options(), &error)) << error;
    EXPECT_FALSE(store.stats().recovered);

    JsonValue out;
    EXPECT_FALSE(store.get("missing", out));
    EXPECT_TRUE(store.put("a", record(1)));
    EXPECT_TRUE(store.put("b", record(2)));
    EXPECT_EQ(store.size(), 2u);
    ASSERT_TRUE(store.get("a", out));
    EXPECT_EQ(out, record(1));

    // Duplicate puts are free hits, not appends.
    EXPECT_TRUE(store.put("a", record(1)));
    EXPECT_EQ(store.stats().duplicatePuts, 1u);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.close());
    EXPECT_TRUE(fileExists("CLEAN"));
}

TEST_F(ResultStoreTest, FramesMatchTheTreeFraming)
{
    // Keys and records holding a quote, a backslash, control characters
    // and non-ASCII text, put alternately as text and as a tree.
    const std::string awkward[] = {"say \"hi\"", "back\\slash",
                                   "bell\x07 tab\t nl\n",
                                   "caf\xc3\xa9 \xe2\x86\x92"};
    std::vector<std::pair<std::string, JsonValue>> records;
    for (uint64_t i = 0; i < 4; ++i) {
        JsonValue nested = JsonValue::object();
        nested.set(awkward[(i + 1) % 4],
                   JsonValue::number(0.5 + static_cast<double>(i)));
        JsonValue value = record(i);
        value.set("text", JsonValue::string(awkward[i]))
            .set("nested", std::move(nested));
        records.emplace_back("k:" + awkward[i], std::move(value));
    }
    auto expectServed = [&](const ResultStore &store) {
        for (const auto &[key, value] : records) {
            std::string text;
            ASSERT_TRUE(store.get(key, text)) << key;
            EXPECT_EQ(text, value.dump()) << key;
            JsonValue tree;
            ASSERT_TRUE(store.get(key, tree)) << key;
            EXPECT_EQ(tree, value) << key;
        }
    };
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        for (size_t i = 0; i < records.size(); ++i) {
            const auto &[key, value] = records[i];
            if (i % 2 == 0)
                ASSERT_TRUE(store.put(key, value.dump()));
            else
                ASSERT_TRUE(store.put(key, value));
        }
        expectServed(store);
        ASSERT_TRUE(store.close());
    }

    // After the header frame, one data line per put, each the tree
    // framing of {"key":k,"record":r}.
    std::istringstream segment(slurp(tailPath()));
    std::vector<std::string> lines;
    for (std::string line; std::getline(segment, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1 + records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        JsonValue payload = JsonValue::object();
        payload.set("key", JsonValue::string(records[i].first))
            .set("record", records[i].second);
        EXPECT_EQ(lines[1 + i], frameLine(payload)) << i;
    }

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_FALSE(reopened.stats().recovered);
    EXPECT_EQ(reopened.stats().corruptFrames, 0u);
    expectServed(reopened);
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, CleanReopenKeepsRecords)
{
    seed(5);
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_FALSE(store.stats().recovered);
    // Present but not vouching: a crash now would be a recovery scan.
    EXPECT_TRUE(fileExists("CLEAN"));
    EXPECT_TRUE(planNow().stats.recovered);
    EXPECT_EQ(store.size(), 5u);
    JsonValue out;
    ASSERT_TRUE(store.get("key3", out));
    EXPECT_EQ(out, record(3));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, ReopenWithoutCloseIsRecovery)
{
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        ASSERT_TRUE(store.put("a", record(7)));
        // Destruction without close(): a crash as far as the next
        // open is concerned.
    }
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    JsonValue out;
    ASSERT_TRUE(store.get("a", out));
    EXPECT_EQ(out, record(7));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, CrashAfterCleanCloseIsRecovery)
{
    // The store was closed cleanly, so CLEAN exists; the next session
    // ends without close(), with or without a put.
    for (bool puts : {false, true}) {
        SCOPED_TRACE(puts ? "with a put" : "without puts");
        test::wipeDir(dir);
        seed(2);
        {
            ResultStore store;
            ASSERT_TRUE(store.open(options()));
            EXPECT_FALSE(store.stats().recovered);
            if (puts) {
                ASSERT_TRUE(store.put("late", record(9)));
            }
        }
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_TRUE(store.stats().recovered);
        EXPECT_EQ(store.size(), puts ? 3u : 2u);
        EXPECT_TRUE(store.close());
    }
}

TEST_F(ResultStoreTest, CleanIsRewrittenInPlace)
{
    // open() and close() rewrite the one CLEAN file: never unlinked, so
    // its inode survives both; close() leaves the clean_shutdown frame
    // every build's close() wrote.
    seed(2);
    const ino_t inode = inodeOf("CLEAN");
    ASSERT_NE(inode, 0u);
    JsonValue shutdown;
    ASSERT_TRUE(JsonValue::parse(
        "{\"clean_shutdown\":{\"generation\":1,\"records\":2}}", shutdown));
    EXPECT_EQ(slurp(dir + "/CLEAN"), frameLine(shutdown) + "\n");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_EQ(inodeOf("CLEAN"), inode);
        EXPECT_EQ(slurp(dir + "/CLEAN"), planNow().cleanRewrite);
        ASSERT_TRUE(store.put("k", record(3)));
        ASSERT_TRUE(store.close());
    }
    EXPECT_EQ(inodeOf("CLEAN"), inode);
    ASSERT_TRUE(JsonValue::parse(
        "{\"clean_shutdown\":{\"generation\":1,\"records\":3}}", shutdown));
    EXPECT_EQ(slurp(dir + "/CLEAN"), frameLine(shutdown) + "\n");
    EXPECT_EQ(test::strictFsck(dir), 0);
}

TEST_F(ResultStoreTest, TornCleanRewriteIsARecovery)
{
    // Every state a crash inside open's or close's rewrite of CLEAN can
    // leave, written in place as that rewrite would leave it: the next
    // open is a recovery scan, never a false clean.
    seed(3);
    const std::string path = dir + "/CLEAN";
    const std::string shutdown = slurp(path);
    std::string session;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        session = slurp(path);
        ASSERT_TRUE(store.close());
    }
    ASSERT_EQ(slurp(path), shutdown);
    size_t states = 0;
    for (const auto &[before, after] :
         {std::pair{shutdown, session}, std::pair{session, shutdown}}) {
        for (const std::string &torn : test::tornRewrites(before, after)) {
            SCOPED_TRACE(torn);
            overwrite(path, torn);
            ResultStore store;
            ASSERT_TRUE(store.open(options()));
            EXPECT_TRUE(store.stats().recovered);
            EXPECT_EQ(store.size(), 3u);
            ASSERT_TRUE(store.close());
            ++states;
        }
    }
    EXPECT_GT(states, session.size());
}

TEST_F(ResultStoreTest, EveryOpenIsTimed)
{
    MetricsRegistry registry;
    ResultStore::Options opts = options();
    opts.metrics = &registry;
    auto opens = [&] {
        for (const HistogramSnapshot &h : registry.snapshot().histograms) {
            if (h.name == "store.open_us")
                return h.count;
        }
        return uint64_t{0};
    };
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    EXPECT_EQ(opens(), 1u);
    ResultStore second;
    EXPECT_FALSE(second.open(opts)); // refused: the directory is held
    EXPECT_EQ(opens(), 2u);
    ASSERT_TRUE(store.close());
    ASSERT_TRUE(store.open(opts));
    EXPECT_EQ(opens(), 3u);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, TornTailLineIsDropped)
{
    seed(3);
    // Append a half-written frame to the tail, as a crash mid-append
    // would leave it.
    spill(tailPath(),
          slurp(tailPath()) + "deadbeef {\"key\":\"torn\",\"rec");
    std::remove((dir + "/CLEAN").c_str());

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().tornTail);
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(store.stats().corruptFrames, 0u); // torn != corrupt
    EXPECT_EQ(store.size(), 3u);
    JsonValue out;
    EXPECT_FALSE(store.get("torn", out));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, CorruptInteriorFrameIsQuarantined)
{
    seed(3);
    // Flip a byte inside the middle record's JSON.
    std::string content = slurp(tailPath());
    size_t key1 = content.find("key1");
    ASSERT_NE(key1, std::string::npos);
    content[key1 + 3] = '?';
    spill(tailPath(), content);

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.stats().corruptFrames, 1u);
    EXPECT_FALSE(store.stats().tornTail);
    EXPECT_EQ(store.size(), 2u);
    JsonValue out;
    EXPECT_TRUE(store.get("key0", out));
    EXPECT_FALSE(store.get("key1", out));
    EXPECT_TRUE(store.get("key2", out));
    // The dropped frame is preserved for forensics, not discarded.
    ASSERT_TRUE(fileExists(kStoreQuarantineFile));
    std::ifstream sidecar(dir + "/" + kStoreQuarantineFile);
    std::string row;
    ASSERT_TRUE(std::getline(sidecar, row));
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(row, parsed));
    EXPECT_NE(parsed.find("reason"), nullptr);
    EXPECT_NE(parsed.find("raw"), nullptr);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, OpenFailsOnLockedDirectory)
{
    // Two handles on one directory would interleave their appends and
    // lose acknowledged puts: the second open is refused, naming the
    // directory, until the first handle closes.
    ResultStore first;
    ASSERT_TRUE(first.open(options()));
    ResultStore second;
    std::string error;
    EXPECT_FALSE(second.open(options(), &error));
    EXPECT_NE(error.find(dir), std::string::npos) << error;
    EXPECT_TRUE(first.put("k1", record(1)));
    ASSERT_TRUE(first.close());
    {
        // Destruction without close() (a crash) releases it too.
        ResultStore crashed;
        ASSERT_TRUE(crashed.open(options()));
        EXPECT_TRUE(crashed.put("k2", record(2)));
    }
    ASSERT_TRUE(second.open(options(), &error)) << error;
    EXPECT_EQ(second.size(), 2u);
    EXPECT_EQ(second.stats().corruptFrames, 0u);
    EXPECT_TRUE(second.close());
}

TEST_F(ResultStoreTest, SegmentRotation)
{
    ResultStore::Options opts = options();
    opts.maxSegmentBytes = 256; // force a rotation every few puts
    ResultStore store;
    ASSERT_TRUE(store.open(opts));
    for (uint64_t i = 0; i < 20; ++i)
        ASSERT_TRUE(store.put("key" + std::to_string(i), record(i)));
    ASSERT_TRUE(store.close());

    size_t tailCount = 0;
    for (const std::string &name : listFiles()) {
        if (name.rfind("tail-", 0) == 0)
            ++tailCount;
    }
    EXPECT_GT(tailCount, 1u);

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 20u);
    EXPECT_GT(reopened.stats().segmentsLoaded, 1u);
    JsonValue out;
    ASSERT_TRUE(reopened.get("key19", out));
    EXPECT_EQ(out, record(19));
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, OpenRefusesCompactedOrMisnamedSegments)
{
    // Only an older build's compaction wrote base files and tails of
    // another generation, and a non-canonical segment name would alias
    // a canonical one: open() refuses each by name and modifies
    // nothing, rather than adopt it and lose the segments it hides.
    ResultStore::Options opts = options();
    opts.maxSegmentBytes = 256;
    {
        ResultStore store;
        ASSERT_TRUE(store.open(opts));
        for (uint64_t i = 0; i < 8; ++i)
            ASSERT_TRUE(store.put("key" + std::to_string(i), record(i)));
        ASSERT_TRUE(store.close());
    }
    const StoreFiles valid = readStoreFiles(dir).value();
    ASSERT_GT(valid.size(), 2u); // CLEAN plus several segments

    const std::pair<std::string, std::string> strays[] = {
        {"base-2.log", ""},
        {"base-2.tmp", ""},
        {"tail-2-1.log", ""},
        // Segment 2's bytes under a name that parses as segment 1.
        {"tail-1-01.log", slurp(dir + "/tail-1-2.log")},
    };
    for (const auto &[stray, content] : strays) {
        SCOPED_TRACE(stray);
        spill(dir + "/" + stray, content);
        const StoreFiles before = readStoreFiles(dir).value();
        ResultStore store;
        std::string error;
        EXPECT_FALSE(store.open(options(), &error));
        EXPECT_NE(error.find(stray), std::string::npos) << error;
        EXPECT_FALSE(store.isOpen());
        EXPECT_EQ(readStoreFiles(dir).value(), before);

        // The refusal released the lock: a second handle is refused for
        // the same file, not for a held directory.
        ResultStore again;
        std::string againError;
        EXPECT_FALSE(again.open(options(), &againError));
        EXPECT_EQ(againError, error);

        std::remove((dir + "/" + stray).c_str());
        ASSERT_EQ(readStoreFiles(dir).value(), valid);
    }

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.size(), 8u);
    EXPECT_FALSE(store.stats().recovered);
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, ForEachVisitsKeySorted)
{
    seed(3);
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(keysOf(store), (Keys{"key0", "key1", "key2"}));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, InjectedEnospcFailsCleanly)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("enospc@1", injector));
    ResultStore store;
    ASSERT_TRUE(store.open(options(&injector)));
    EXPECT_TRUE(store.put("a", record(1)));
    std::string error;
    EXPECT_FALSE(store.put("b", record(2), &error));
    EXPECT_NE(error.find("disk full"), std::string::npos);
    // The store stays usable; the failed key can be retried.
    EXPECT_TRUE(store.put("b", record(2)));
    EXPECT_TRUE(store.put("c", record(3)));
    ASSERT_TRUE(store.close());

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.stats().corruptFrames, 0u);
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, InjectedShortWriteResyncs)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    ResultStore store;
    ASSERT_TRUE(store.open(options(&injector)));
    EXPECT_TRUE(store.put("a", record(1)));
    std::string error;
    EXPECT_FALSE(store.put("b", record(2), &error));
    EXPECT_NE(error.find("short write"), std::string::npos);
    // The next append resyncs past the torn prefix.
    EXPECT_TRUE(store.put("b", record(2)));
    ASSERT_TRUE(store.close());

    ResultStore reopened;
    ASSERT_TRUE(reopened.open(options()));
    EXPECT_EQ(reopened.size(), 2u);
    // The torn prefix became one quarantined interior frame.
    EXPECT_EQ(reopened.stats().corruptFrames, 1u);
    JsonValue out;
    ASSERT_TRUE(reopened.get("b", out));
    EXPECT_EQ(out, record(2));
    EXPECT_TRUE(reopened.close());
}

TEST_F(ResultStoreTest, QuarantineSidecarIsWrittenOnlyWhenItChanges)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options(&injector)));
        EXPECT_TRUE(store.put("a", record(1)));
        EXPECT_FALSE(store.put("b", record(2)));
        EXPECT_TRUE(store.put("b", record(2)));
        ASSERT_TRUE(store.close());
    }
    const std::string sidecar = dir + "/" + kStoreQuarantineFile;
    auto reopen = [&] {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_EQ(store.stats().corruptFrames, 1u);
        ASSERT_TRUE(store.close());
    };
    reopen();
    const std::string written = slurp(sidecar);
    ASSERT_FALSE(written.empty());

    // Stamp an old mtime: an open that rewrites the sidecar, even with
    // the same bytes, moves it to now.
    const struct timespec old[2] = {{1'000'000, 0}, {1'000'000, 0}};
    ASSERT_EQ(utimensat(AT_FDCWD, sidecar.c_str(), old, 0), 0);
    reopen();
    struct stat info;
    ASSERT_EQ(stat(sidecar.c_str(), &info), 0);
    EXPECT_EQ(info.st_mtim.tv_sec, 1'000'000);
    EXPECT_EQ(info.st_mtim.tv_nsec, 0);
    EXPECT_EQ(slurp(sidecar), written);

    // A sidecar that differs from what the open skipped is rewritten.
    {
        std::ofstream damaged(sidecar, std::ios::binary | std::ios::app);
        damaged << "{\"stale\":true}\n";
    }
    reopen();
    EXPECT_EQ(slurp(sidecar), written);
}

TEST_F(ResultStoreTest, ShortWriteBeforeRotationOrCloseIsFenced)
{
    // Put a, short-write b, then put c (unless the store closes right
    // after the short write) and reopen; returns the quarantine row.
    auto scenario = [&](uint64_t maxSegmentBytes, bool closeEarly) {
        SCOPED_TRACE("maxSegmentBytes " + std::to_string(maxSegmentBytes) +
                     (closeEarly ? ", close after the short write" : ""));
        test::wipeDir(dir);
        FaultInjector injector;
        EXPECT_TRUE(FaultInjector::parse("shortwrite@1", injector));
        ResultStore::Options opts = options(&injector);
        opts.maxSegmentBytes = maxSegmentBytes;
        {
            ResultStore store;
            EXPECT_TRUE(store.open(opts));
            EXPECT_TRUE(store.put("a", record(1)));
            EXPECT_FALSE(store.put("b", record(2)));
            if (!closeEarly) {
                EXPECT_TRUE(store.put("c", record(3)));
            }
            EXPECT_TRUE(store.close());
        }
        // The torn prefix is fenced off where it was written, even when
        // that segment was rotated away or closed right after it.
        const StoreFiles files = readStoreFiles(dir).value();
        for (const auto &[name, bytes] : files) {
            if (name.rfind("tail-", 0) == 0) {
                EXPECT_TRUE(!bytes.empty() && bytes.back() == '\n')
                    << name;
            }
        }
        ResultStore reopened;
        EXPECT_TRUE(reopened.open(options()));
        const Keys served = closeEarly ? Keys{"a"} : Keys{"a", "c"};
        EXPECT_EQ(keysOf(reopened), served);
        EXPECT_EQ(reopened.stats().corruptFrames, 1u);
        EXPECT_FALSE(reopened.stats().tornTail);
        EXPECT_TRUE(reopened.close());
        JsonValue row;
        EXPECT_TRUE(JsonValue::parse(slurp(dir + "/" + kStoreQuarantineFile),
                                     row, nullptr));
        return row;
    };
    // The reference: the next put in the same segment fences the stub.
    const JsonValue fencedByPut = scenario(4 * 1024 * 1024, false);
    ASSERT_TRUE(fencedByPut.isObject());
    // A 1-byte limit rotates before every put, so b's stub ends its
    // segment; the other cases close right after the short write.
    for (const auto &[maxSegmentBytes, closeEarly] :
         {std::pair<uint64_t, bool>{1, false}, {1, true},
          {4 * 1024 * 1024, true}}) {
        JsonValue row = scenario(maxSegmentBytes, closeEarly);
        ASSERT_TRUE(row.isObject());
        EXPECT_EQ(*row.find("raw"), *fencedByPut.find("raw"));
        EXPECT_EQ(*row.find("reason"), *fencedByPut.find("reason"));
    }
}

/** Records the warnings logged while alive. */
class WarningLog : public Logger
{
  public:
    WarningLog() : previous(Logger::exchange(this)) {}
    ~WarningLog() override { Logger::exchange(previous); }

    void
    emit(Level level, const std::string &message) override
    {
        if (level == Level::Warn)
            lines.push_back(message);
        else
            previous->emit(level, message);
    }

    std::vector<std::string> lines;

  private:
    Logger *previous;
};

TEST_F(ResultStoreTest, CleanMarkerThatDisagreesIsARecovery)
{
    // A lost data line leaves CLEAN vouching for a record the segments
    // no longer hold: the marker counts as absent.
    seed(3);
    std::string content = slurp(tailPath());
    size_t key1 = content.find("key1");
    ASSERT_NE(key1, std::string::npos);
    size_t from = content.rfind('\n', key1) + 1;
    content.erase(from, content.find('\n', key1) + 1 - from);
    spill(tailPath(), content);

    const OpenPlan plan = planOpen(readStoreFiles(dir).value());
    ResultStore store;
    WarningLog log;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(keysOf(store), (Keys{"key0", "key2"}));
    ASSERT_EQ(plan.findings.size(), 1u);
    EXPECT_NE(plan.findings[0].find("CLEAN says 3 record(s) but the "
                                    "segments hold 2"),
              std::string::npos)
        << plan.findings[0];
    // Open's log lines are exactly the plan's findings.
    EXPECT_EQ(log.lines, (std::vector<std::string>{
                             "result store " + dir + ": " + plan.findings[0]}));
    EXPECT_TRUE(store.close());
}

TEST_F(ResultStoreTest, QuarantineSidecarTracksLatestOpen)
{
    // Put a, short-write b, put c, close: one fenced stub in the tail.
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options(&injector)));
        EXPECT_TRUE(store.put("a", record(1)));
        EXPECT_FALSE(store.put("b", record(2)));
        EXPECT_TRUE(store.put("c", record(3)));
        ASSERT_TRUE(store.close());
    }
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_EQ(store.stats().corruptFrames, 1u);
        EXPECT_TRUE(fileExists(kStoreQuarantineFile));
        ASSERT_TRUE(store.close());
    }
    // Drop the stub: the next open skips nothing, so no sidecar row may
    // outlive it.
    std::string content = slurp(tailPath());
    size_t stub = content.find("\"b\"");
    ASSERT_NE(stub, std::string::npos);
    size_t from = content.rfind('\n', stub) + 1;
    content.erase(from, content.find('\n', stub) + 1 - from);
    spill(tailPath(), content);

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(store.stats().corruptFrames, 0u);
    EXPECT_FALSE(store.stats().recovered);
    EXPECT_EQ(keysOf(store), (Keys{"a", "c"}));
    EXPECT_FALSE(fileExists(kStoreQuarantineFile));
    EXPECT_TRUE(store.close());
}

// The store as the ledger of a sweep's finished runs: what each kind of
// damage to its log leaves readable at the next open.
using LedgerTest = ResultStoreTest;

TEST_F(LedgerTest, AppendLoadRoundTrip)
{
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_TRUE(store.put("k0", record(10)));
        EXPECT_TRUE(store.put("k1", record(11)));
        EXPECT_EQ(store.stats().appendAttempts, 2u);
        ASSERT_TRUE(store.close());
    }
    ResultStore load;
    ASSERT_TRUE(load.open(options()));
    EXPECT_EQ(keysOf(load), (Keys{"k0", "k1"}));
    JsonValue out;
    ASSERT_TRUE(load.get("k0", out));
    EXPECT_EQ(out, record(10));
    ASSERT_TRUE(load.get("k1", out));
    EXPECT_EQ(out, record(11));
    EXPECT_EQ(load.stats().corruptFrames, 0u);
    EXPECT_FALSE(load.stats().tornTail);
    EXPECT_FALSE(load.stats().recovered);
    EXPECT_TRUE(load.close());
}

TEST_F(LedgerTest, MissingFileFailsWithReason)
{
    ResultStore::Options opts = options();
    opts.dir = dir + "/no/such/parent";
    ResultStore store;
    std::string error;
    EXPECT_FALSE(store.open(opts, &error));
    EXPECT_NE(error.find("cannot create"), std::string::npos) << error;
    EXPECT_NE(error.find(opts.dir), std::string::npos) << error;
}

TEST_F(LedgerTest, EmptyFileLoadsEmpty)
{
    // A crash between creating a segment and writing its header frame
    // leaves an empty file: no records, and no damage either.
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
    spill(tailPath(), "");
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.stats().segmentsLoaded, 1u);
        EXPECT_TRUE(store.stats().recovered);
        EXPECT_FALSE(store.stats().tornTail);
        EXPECT_EQ(store.stats().corruptFrames, 0u);
        EXPECT_TRUE(store.put("k0", record(10)));
        ASSERT_TRUE(store.close());
    }
    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(keysOf(store), (Keys{"k0"}));
    EXPECT_TRUE(store.close());
}

TEST_F(LedgerTest, TornTailIsDroppedNotFatal)
{
    seed(1);
    std::string intact = slurp(tailPath());
    // Half of the next frame, as a kill during its append leaves it.
    JsonValue payload = JsonValue::object();
    payload.set("key", JsonValue::string("key1")).set("record", record(1));
    std::string frame = frameLine(payload);
    spill(tailPath(), intact + frame.substr(0, frame.size() / 2));
    std::remove((dir + "/" + kStoreCleanMarker).c_str());

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(keysOf(store), (Keys{"key0"}));
    EXPECT_TRUE(store.stats().tornTail);
    EXPECT_EQ(store.stats().corruptFrames, 0u);
    // The recovery open cut the stub off the segment.
    EXPECT_EQ(slurp(tailPath()), intact);
    EXPECT_TRUE(store.close());
}

TEST_F(LedgerTest, FlippedByteFailsTheLineOnly)
{
    std::vector<std::string> lines;
    for (uint64_t i = 0; i < 3; ++i)
        lines.push_back(frameLine(record(i)));
    JsonValue payload;
    std::string reason;
    // A flipped bit anywhere in the middle line, checksum and
    // separator included, fails that line...
    for (size_t at = 0; at < lines[1].size(); ++at) {
        std::string flipped = lines[1];
        flipped[at] ^= 0x04;
        EXPECT_FALSE(parseFrameLine(flipped, payload, reason))
            << "undetected flip at byte " << at;
    }
    // ...and only that line.
    ASSERT_TRUE(parseFrameLine(lines[0], payload, reason)) << reason;
    EXPECT_EQ(payload, record(0));
    ASSERT_TRUE(parseFrameLine(lines[2], payload, reason)) << reason;
    EXPECT_EQ(payload, record(2));
}

TEST_F(LedgerTest, GarbageLinesAreSkipped)
{
    seed(1);
    spill(tailPath(), "not a ledger line\nzz\n" + slurp(tailPath()) +
                          "deadbeef {\"key\":\"x\"}\n");

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(keysOf(store), (Keys{"key0"}));
    EXPECT_EQ(store.stats().corruptFrames, 3u);
    EXPECT_FALSE(store.stats().tornTail);
    EXPECT_TRUE(store.close());
}

TEST_F(LedgerTest, ChecksummedButMisshapenEntryIsRejected)
{
    // Frames whose CRC is honest but whose payload lacks the
    // {key: string, record: object} shape: rejected on shape, not
    // crashed on downstream.
    seed(1);
    std::string content = slurp(tailPath());
    for (const char *text :
         {"[1,2,3]", "{\"key\":\"x\"}", "{\"key\":7,\"record\":{}}",
          "{\"key\":\"x\",\"record\":\"not an object\"}"}) {
        JsonValue payload;
        ASSERT_TRUE(JsonValue::parse(text, payload));
        content += frameLine(payload) + "\n";
    }
    spill(tailPath(), content);

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_EQ(keysOf(store), (Keys{"key0"}));
    EXPECT_EQ(store.stats().corruptFrames, 4u);
    std::ifstream sidecar(dir + "/" + kStoreQuarantineFile);
    size_t rows = 0;
    for (std::string row; std::getline(sidecar, row); ++rows)
        EXPECT_NE(row.find("lacks a known shape"), std::string::npos) << row;
    EXPECT_EQ(rows, 4u);
    EXPECT_TRUE(store.close());
}

TEST_F(LedgerTest, UnwritablePathReportsNotOk)
{
    // A plain file where the store directory should be.
    spill(dir, "not a directory");
    ResultStore store;
    std::string error;
    EXPECT_FALSE(store.open(options(), &error));
    EXPECT_NE(error.find(dir), std::string::npos) << error;
    EXPECT_FALSE(store.isOpen());
    EXPECT_FALSE(store.put("k", record(1)));
}

TEST_F(LedgerTest, InjectedEnospcFailsWithoutCorrupting)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("enospc@1", injector));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options(&injector)));
        EXPECT_TRUE(store.put("k0", record(0)));
        EXPECT_FALSE(store.put("k1", record(1))); // injected
        EXPECT_TRUE(store.put("k2", record(2)));
        EXPECT_EQ(store.size(), 2u);
        ASSERT_TRUE(store.close());
    }
    ResultStore load;
    ASSERT_TRUE(load.open(options()));
    EXPECT_EQ(keysOf(load), (Keys{"k0", "k2"}));
    EXPECT_EQ(load.stats().corruptFrames, 0u);
    EXPECT_FALSE(load.stats().tornTail);
    EXPECT_TRUE(load.close());
    EXPECT_EQ(test::strictFsck(dir), 0);
}

TEST_F(LedgerTest, InjectedShortWriteResyncsNextAppend)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options(&injector)));
        EXPECT_TRUE(store.put("k0", record(0)));
        EXPECT_FALSE(store.put("k1", record(1))); // torn prefix
        // The resync newline fences the torn frame off from this one.
        EXPECT_TRUE(store.put("k2", record(2)));
        ASSERT_TRUE(store.close());
    }
    // Every open skips the fenced frame again; the sidecar lists it
    // once, as the latest open skipped it, not once per restart.
    for (int reopen = 0; reopen < 4; ++reopen) {
        SCOPED_TRACE(reopen);
        ResultStore load;
        ASSERT_TRUE(load.open(options()));
        EXPECT_EQ(keysOf(load), (Keys{"k0", "k2"}));
        EXPECT_EQ(load.stats().corruptFrames, 1u); // the fenced torn prefix
        EXPECT_FALSE(load.stats().tornTail);
        std::string rows = slurp(dir + "/" + kStoreQuarantineFile);
        EXPECT_NE(rows.find("k1"), std::string::npos) << rows;
        EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 1) << rows;
        EXPECT_TRUE(load.close());
    }
}

TEST_F(LedgerTest, ShortWriteAtTailIsDroppedAsTorn)
{
    FaultInjector injector;
    ASSERT_TRUE(FaultInjector::parse("shortwrite@1", injector));
    {
        ResultStore store;
        ASSERT_TRUE(store.open(options(&injector)));
        EXPECT_TRUE(store.put("k0", record(0)));
        EXPECT_FALSE(store.put("k1", record(1)));
        // Destroyed without close(): the process died here, and the
        // torn frame is the final line.
    }
    {
        ResultStore load;
        ASSERT_TRUE(load.open(options()));
        EXPECT_EQ(keysOf(load), (Keys{"k0"}));
        EXPECT_TRUE(load.stats().recovered);
        EXPECT_TRUE(load.stats().tornTail);
        EXPECT_EQ(load.stats().corruptFrames, 0u);
        EXPECT_TRUE(load.close());
    }
    // Healed: the next open finds nothing torn.
    ResultStore load;
    ASSERT_TRUE(load.open(options()));
    EXPECT_FALSE(load.stats().tornTail);
    EXPECT_EQ(load.stats().corruptFrames, 0u);
    EXPECT_TRUE(load.close());
}

TEST_F(LedgerTest, SigtermFlushKeepsJournaledRuns)
{
    // An orchestrator SIGTERM must not lose runs that already
    // completed. There is nothing to flush: put() returns only once
    // the record is fsync'd, so the default disposition may kill the
    // process at once.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ResultStore store;
        store.open(options());
        for (uint64_t i = 0; i < 5; ++i)
            store.put(std::string("k").append(std::to_string(i)), record(i));
        std::raise(SIGTERM);
        _exit(0); // unreachable: SIGTERM terminates the process
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    ResultStore load;
    ASSERT_TRUE(load.open(options()));
    EXPECT_EQ(load.size(), 5u);
    EXPECT_TRUE(load.stats().recovered);
    EXPECT_EQ(load.stats().corruptFrames, 0u);
    EXPECT_FALSE(load.stats().tornTail);
    EXPECT_TRUE(load.close());
}

using ResultStoreDeathTest = ResultStoreTest;

TEST_F(ResultStoreDeathTest, InjectedTearLosesOnlyInFlightPut)
{
    seed(0);
    EXPECT_EXIT(
        {
            FaultInjector injector;
            FaultInjector::parse("tear@1", injector);
            ResultStore store;
            store.open(options(&injector));
            store.put("a", record(1));
            store.put("b", record(2)); // tears + dies
        },
        ::testing::ExitedWithCode(137), "");

    {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_TRUE(store.stats().recovered);
        EXPECT_TRUE(store.stats().tornTail);
        EXPECT_EQ(store.size(), 1u);
        JsonValue out;
        EXPECT_TRUE(store.get("a", out));
        EXPECT_FALSE(store.get("b", out));
        // The retry lands in a new tail, behind the torn one.
        EXPECT_TRUE(store.put("b", record(2)));
        EXPECT_TRUE(store.close());
    }
    // The recovery open cut the stub off: left in place, it would read
    // as a corrupt interior frame on every later open.
    for (int reopen = 0; reopen < 2; ++reopen) {
        ResultStore store;
        ASSERT_TRUE(store.open(options()));
        EXPECT_FALSE(store.stats().tornTail);
        EXPECT_EQ(store.stats().corruptFrames, 0u);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_TRUE(store.close());
    }
    EXPECT_FALSE(fileExists(kStoreQuarantineFile));
    EXPECT_EQ(test::strictFsck(dir), 0);
}

TEST_F(ResultStoreDeathTest, InjectedCrashAfterPutKeepsRecord)
{
    seed(0);
    EXPECT_EXIT(
        {
            FaultInjector injector;
            FaultInjector::parse("crash@1", injector);
            ResultStore store;
            store.open(options(&injector));
            store.put("a", record(1));
            store.put("b", record(2)); // durable, then dies unacked
        },
        ::testing::ExitedWithCode(137), "");

    ResultStore store;
    ASSERT_TRUE(store.open(options()));
    EXPECT_TRUE(store.stats().recovered);
    EXPECT_EQ(store.size(), 2u);
    JsonValue out;
    EXPECT_TRUE(store.get("b", out)); // the unacked put survived
    EXPECT_TRUE(store.close());
}

} // namespace
