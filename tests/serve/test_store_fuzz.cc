/**
 * @file
 * Seeded mutation fuzzing of the result store's open (DESIGN.md
 * §15.1): frame parsing, torn-tail truncation, quarantine and the
 * refusal of files the store would misread. gcc-only, no fuzzing
 * engine: a fixed seed range replays the same mutants on every run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/result_store.hh"
#include "serve/store_test_support.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace specfetch;

namespace {

/** A store directory's files: name -> bytes. */
using Files = std::map<std::string, std::string>;

void
writeFiles(const std::string &dir, const Files &files)
{
    test::wipeDir(dir);
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0) << dir;
    for (const auto &[name, bytes] : files) {
        std::ofstream out(dir + "/" + name, std::ios::binary);
        out << bytes;
    }
}

/** (key, record) pairs a store serves, in key order. */
std::vector<std::pair<std::string, std::string>>
servedMap(const ResultStore &store)
{
    std::vector<std::pair<std::string, std::string>> served;
    store.forEach([&](const std::string &key, const JsonValue &record) {
        served.emplace_back(key, record.dump());
    });
    return served;
}

/** Split on '\n': n newlines make n + 1 pieces, the last unterminated. */
std::vector<std::string>
splitLines(const std::string &bytes)
{
    std::vector<std::string> lines(1);
    for (char c : bytes) {
        if (c == '\n')
            lines.emplace_back();
        else
            lines.back() += c;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string bytes;
    for (size_t i = 0; i < lines.size(); ++i)
        bytes += (i ? "\n" : "") + lines[i];
    return bytes;
}

/** Give every line overlapping bytes [from, to] a valid CRC again, so
 *  its damage reaches the JSON parse and the frame-shape checks. */
void
restamp(std::string &bytes, size_t from, size_t to)
{
    size_t start = from == 0 ? 0 : bytes.rfind('\n', from - 1) + 1;
    while (start <= to && start <= bytes.size()) {
        size_t end = bytes.find('\n', start);
        if (end == std::string::npos)
            end = bytes.size();
        if (end - start >= 9) {
            bytes.replace(start, 8,
                          crcHex(crc32(bytes.substr(start + 9,
                                                    end - start - 9))));
            bytes[start + 8] = ' ';
        }
        start = end + 1;
    }
}

/** Names of the segment files in @p files (renamed ones included). */
std::vector<std::string>
segmentNames(const Files &files)
{
    std::vector<std::string> names;
    for (const auto &[name, bytes] : files) {
        if (name.rfind("tail-", 0) == 0)
            names.push_back(name);
    }
    return names;
}

/**
 * One mutation of a store directory: a bit flip, a truncation or
 * random bytes inserted (newlines included) in a segment; a line
 * deleted, duplicated or swapped; a segment removed or renamed to a
 * non-canonical or other-generation name; a stray base-2.log,
 * base-2.tmp or tail-2-1.log; or CLEAN removed. With @p restampCrc the
 * byte-level damage gets valid CRCs.
 */
void
mutate(Files &files, Rng &rng, bool restampCrc)
{
    std::vector<std::string> segments = segmentNames(files);
    const uint64_t kind = rng.nextBelow(10);
    if (kind >= 7) {
        if (kind == 7) {
            files.erase(kStoreCleanMarker);
        } else if (kind == 8) {
            const char *strays[] = {"base-2.log", "base-2.tmp",
                                    "tail-2-1.log"};
            std::string base = segments.empty()
                                   ? std::string()
                                   : files[segments[0]];
            files[strays[rng.nextBelow(3)]] =
                rng.nextBool(0.5) ? base : std::string();
        } else if (!segments.empty()) {
            // Renamed under a name that parses as a segment: zero
            // padded, past 2^64 (wrapping to 1), or another generation.
            std::string from = segments[rng.nextBelow(segments.size())];
            std::string number = from.substr(from.rfind('-') + 1);
            number.resize(number.size() - 4); // ".log"
            const std::string names[] = {
                "tail-1-0" + number + ".log",
                "tail-1-18446744073709551617.log",
                "tail-2-" + number + ".log",
                "tail-01-" + number + ".log",
            };
            std::string bytes = files[from];
            files.erase(from);
            files[names[rng.nextBelow(4)]] = bytes;
        }
        return;
    }
    if (segments.empty())
        return;
    if (kind == 6) {
        files.erase(segments[rng.nextBelow(segments.size())]);
        return;
    }
    std::string &bytes = files[segments[rng.nextBelow(segments.size())]];
    if (kind == 0 && !bytes.empty()) {
        size_t at = rng.nextBelow(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.nextBelow(8)));
        if (restampCrc)
            restamp(bytes, at, at);
    } else if (kind == 1 && !bytes.empty()) {
        size_t size = rng.nextBelow(bytes.size());
        bytes.resize(size);
        if (restampCrc && size > 0)
            restamp(bytes, size - 1, size - 1);
    } else if (kind == 2) {
        size_t at = rng.nextBelow(bytes.size() + 1);
        std::string noise;
        for (uint64_t n = 1 + rng.nextBelow(8); n > 0; --n) {
            noise += rng.nextBool(0.25)
                         ? '\n'
                         : static_cast<char>(rng.nextBelow(256));
        }
        bytes.insert(at, noise);
        if (restampCrc)
            restamp(bytes, at, at + noise.size());
    } else if (kind >= 3 && kind <= 5) {
        // Whole terminated lines only: the last piece has no newline.
        std::vector<std::string> lines = splitLines(bytes);
        if (lines.size() < 2)
            return;
        size_t at = rng.nextBelow(lines.size() - 1);
        if (kind == 3) {
            lines.erase(lines.begin() + static_cast<long>(at));
        } else if (kind == 4) {
            lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
        } else {
            std::swap(lines[at], lines[rng.nextBelow(lines.size() - 1)]);
        }
        bytes = joinLines(lines);
    }
}

/** Drops warnings while alive: every mutant makes the recovery scan
 *  talk. */
class QuietLogger : public Logger
{
  public:
    QuietLogger() : previous(Logger::exchange(this)) {}
    ~QuietLogger() override { Logger::exchange(previous); }

    void
    emit(Level level, const std::string &message) override
    {
        if (level != Level::Warn)
            previous->emit(level, message);
    }

  private:
    Logger *previous;
};

} // namespace

/**
 * Every mutant of a valid store either is refused by name with nothing
 * modified, or opens and serves every record whose frame the
 * mutations left intact; undamaged checksums never let a changed
 * record through; and what one open repaired, the next open finds
 * already repaired. No crash, no hang, nothing for the sanitizers.
 */
TEST(StoreOpenFuzz, SeededMutationsAreRefusedOrServed)
{
    const std::string seedDir = test::tempPath("seed");
    const std::string dir = test::tempPath("mutant");
    test::wipeDir(seedDir);

    // 24 records over several segments; each record's frame line, to
    // tell untouched records from damaged ones.
    std::map<std::string, std::string> frames;
    std::map<std::string, std::string> values;
    {
        ResultStore::Options options;
        options.dir = seedDir;
        options.maxSegmentBytes = 512;
        ResultStore store;
        ASSERT_TRUE(store.open(options));
        for (uint64_t i = 0; i < 24; ++i) {
            std::string key = "gcc:" + std::to_string(1000 + i * 37);
            JsonValue record = JsonValue::object();
            record.set("record", JsonValue::string("run"))
                .set("workload", JsonValue::string("gcc"))
                .set("ispi", JsonValue::number(static_cast<double>(i) / 8))
                .set("misses", JsonValue::integer(i * i));
            ASSERT_TRUE(store.put(key, record));
            JsonValue payload = JsonValue::object();
            payload.set("key", JsonValue::string(key)).set("record", record);
            frames[key] = frameLine(payload);
            values[key] = record.dump();
        }
        ASSERT_TRUE(store.close());
    }
    const Files seeded = test::readFiles(seedDir);
    ASSERT_GE(segmentNames(seeded).size(), 3u);

    QuietLogger quiet;
    uint64_t refused = 0, served = 0, torn = 0, quarantining = 0;
    for (uint64_t seed = 1; seed <= 2'000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Files mutant = seeded;
        for (uint64_t n = 1 + rng.nextBelow(4); n > 0; --n)
            mutate(mutant, rng, seed % 2 == 1);
        writeFiles(dir, mutant);

        // Every name the seeded store lacks is one open() must refuse.
        std::vector<std::string> strays;
        for (const auto &[name, bytes] : mutant) {
            if (!seeded.count(name))
                strays.push_back(name);
        }
        ResultStore::Options options;
        options.dir = dir;

        auto store = std::make_unique<ResultStore>();
        std::string error;
        if (!store->open(options, &error)) {
            ++refused;
            ASSERT_FALSE(strays.empty()) << error;
            bool named = false;
            for (const std::string &name : strays)
                named = named || error.find(name) != std::string::npos;
            EXPECT_TRUE(named) << error;
            EXPECT_EQ(test::readFiles(dir), mutant)
                << "refusal modified the store";
            // The refusal released the directory lock.
            ResultStore again;
            std::string againError;
            EXPECT_FALSE(again.open(options, &againError));
            EXPECT_EQ(againError, error);
            continue;
        }
        ++served;
        ASSERT_TRUE(strays.empty()) << "opened despite " << strays[0];

        for (const auto &[key, frame] : frames) {
            bool intact = false;
            for (const auto &[name, bytes] : mutant) {
                for (const std::string &line : splitLines(bytes))
                    intact = intact || line == frame;
            }
            JsonValue record;
            EXPECT_TRUE(!intact || store->get(key, record))
                << "untouched record " << key << " lost";
        }
        if (seed % 2 == 0) {
            for (const auto &[key, record] : servedMap(*store)) {
                ASSERT_TRUE(values.count(key)) << "served " << key;
                EXPECT_EQ(record, values[key]) << key;
            }
        }
        torn += store->stats().tornTail;
        quarantining += store->stats().corruptFrames > 0;

        // What this open repaired, the next one finds repaired. The
        // first handle dies without close(): a crash.
        auto first = servedMap(*store);
        uint64_t corrupt = store->stats().corruptFrames;
        store = std::make_unique<ResultStore>();
        ASSERT_TRUE(store->open(options, &error)) << error;
        EXPECT_EQ(servedMap(*store), first);
        EXPECT_EQ(store->stats().corruptFrames, corrupt);
        EXPECT_FALSE(store->stats().tornTail);
    }
    test::wipeDir(dir);
    test::wipeDir(seedDir);

    // Every outcome must occur, or the mutations test nothing.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(torn, 0u);
    EXPECT_GT(quarantining, 0u);
}
