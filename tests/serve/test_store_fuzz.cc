/**
 * @file
 * Seeded fuzzing of the result store (DESIGN.md §15.1). Mutated store
 * directories go through planOpen in memory, and every 50th through a
 * real open on disk: frame parsing, torn-tail truncation, quarantine
 * and the refusal of files the store would misread. Fault-injected
 * write histories check that every acknowledged put survives. gcc-only,
 * no fuzzing engine: fixed seed ranges replay the same cases every run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "serve/result_store.hh"
#include "serve/store_test_support.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace specfetch;

namespace {

void
writeFiles(const std::string &dir, const StoreFiles &files)
{
    test::wipeDir(dir);
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0) << dir;
    for (const auto &[name, bytes] : files) {
        std::ofstream out(dir + "/" + name, std::ios::binary);
        out << bytes;
    }
}

/** The records a store serves, as text, in key order. */
std::map<std::string, std::string>
servedMap(const ResultStore &store)
{
    std::map<std::string, std::string> served;
    store.forEach([&](const std::string &key, const std::string &record) {
        served.emplace(key, record);
    });
    return served;
}

/** @p files after open applied @p plan: torn tails cut, CLEAN (when
 *  present) rewritten as the session-open frame. */
StoreFiles
applied(StoreFiles files, const OpenPlan &plan)
{
    for (const auto &[name, keep] : plan.cuts) {
        if (keep == 0)
            files.erase(name);
        else
            files[name].resize(keep);
    }
    if (!plan.cleanRewrite.empty())
        files[kStoreCleanMarker] = plan.cleanRewrite;
    return files;
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
segmentNames(const StoreFiles &files)
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
mutate(StoreFiles &files, Rng &rng, bool restampCrc)
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

/**
 * Open @p mutant on disk in @p dir and require that the real open does
 * what @p plan says: the same refusal (with the directory untouched and
 * unlocked), or the same stats and served map, with the files left as
 * the plan's cuts and sidecar describe.
 */
void
openMatchesPlan(const std::string &dir, const StoreFiles &mutant,
                const OpenPlan &plan)
{
    writeFiles(dir, mutant);
    ResultStore::Options options;
    options.dir = dir;
    ResultStore store;
    std::string error;
    if (!store.open(options, &error)) {
        EXPECT_EQ(error, "result store " + dir + ": refusing to open: " +
                             plan.refusal);
        EXPECT_EQ(readStoreFiles(dir).value(), mutant)
            << "refusal modified the store";
        // The refusal released the directory lock.
        ResultStore again;
        std::string againError;
        EXPECT_FALSE(again.open(options, &againError));
        EXPECT_EQ(againError, error);
        return;
    }
    ASSERT_TRUE(plan.refusal.empty()) << "opened despite " << plan.refusal;
    EXPECT_EQ(toJson(store.stats()), toJson(plan.stats));
    EXPECT_EQ(servedMap(store), plan.index);
    StoreFiles expected = applied(mutant, plan);
    std::string rows;
    for (const JsonValue &row : plan.quarantine)
        rows += row.dump() + "\n";
    if (!rows.empty())
        expected[kStoreQuarantineFile] = rows;
    EXPECT_EQ(readStoreFiles(dir).value(), expected);
}

} // namespace

/**
 * Every mutant of a valid store either is refused by name, or opens
 * and serves every record whose frame the mutations left intact;
 * undamaged checksums never let a changed record through; and what one
 * open repairs, planning again finds repaired. Every 50th mutant also
 * opens on disk, where the real open must do what the plan says. No
 * crash, no hang, nothing for the sanitizers.
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
    const StoreFiles seeded = readStoreFiles(seedDir).value();
    test::wipeDir(seedDir);
    ASSERT_GE(segmentNames(seeded).size(), 3u);

    QuietLogger quiet;
    uint64_t refused = 0, served = 0, torn = 0, quarantining = 0;
    for (uint64_t seed = 1; seed <= 2'000; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        StoreFiles mutant = seeded;
        for (uint64_t n = 1 + rng.nextBelow(4); n > 0; --n)
            mutate(mutant, rng, seed % 2 == 1);
        const OpenPlan plan = planOpen(mutant);
        if (seed % 50 == 0)
            openMatchesPlan(dir, mutant, plan);

        // Every name the seeded store lacks is one open must refuse.
        std::vector<std::string> strays;
        for (const auto &[name, bytes] : mutant) {
            if (!seeded.count(name))
                strays.push_back(name);
        }
        if (!plan.refusal.empty()) {
            ++refused;
            ASSERT_FALSE(strays.empty()) << plan.refusal;
            bool named = false;
            for (const std::string &name : strays)
                named = named || plan.refusal.rfind(name + " ", 0) == 0;
            EXPECT_TRUE(named) << plan.refusal;
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
            EXPECT_TRUE(!intact || plan.index.count(key))
                << "untouched record " << key << " lost";
        }
        if (seed % 2 == 0) {
            for (const auto &[key, record] : plan.index) {
                ASSERT_TRUE(values.count(key)) << "served " << key;
                EXPECT_EQ(record, values[key]) << key;
            }
        }
        torn += plan.stats.tornTail;
        quarantining += plan.stats.corruptFrames > 0;

        // What this open repairs, the next one finds repaired; and a
        // crash right after this open makes the next one a recovery
        // scan, unless there is nothing to recover.
        const OpenPlan again = planOpen(applied(mutant, plan));
        EXPECT_TRUE(again.cuts.empty());
        EXPECT_EQ(again.quarantine, plan.quarantine);
        EXPECT_EQ(again.index, plan.index);
        EXPECT_TRUE(again.stats.recovered ||
                    (again.stats.segmentsLoaded == 0 &&
                     !mutant.count(kStoreCleanMarker)));
    }
    test::wipeDir(dir);

    // Every outcome must occur, or the mutations test nothing.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(torn, 0u);
    EXPECT_GT(quarantining, 0u);
}

/**
 * Seeded write histories under injected faults: 4–12 puts over a pool
 * of six keys, with shortwrite@k and enospc@k directives, a segment
 * limit of 1 byte, 200 bytes or 4 MiB, ending in close() or in the
 * handle's destruction (a crash). Reopened, the store serves every
 * acknowledged put and nothing else. Each short write is one
 * quarantined frame, except one that was the last write before a
 * crash, which is the torn tail. A closed history reopens with no
 * recovery scan and no torn tail, and no history draws an fsck error.
 */
TEST(StoreWriteFuzz, SeededHistoriesKeepEveryAcknowledgedPut)
{
    const std::string dir = test::tempPath("history");
    const uint64_t segmentLimits[] = {1, 200, 4 * 1024 * 1024};
    QuietLogger quiet;
    uint64_t crashes = 0, torn = 0, quarantining = 0;
    for (uint64_t seed = 1; seed <= 48; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        test::wipeDir(dir);
        Rng rng(seed);
        const uint64_t puts = 4 + rng.nextBelow(9);
        std::string spec;
        for (uint64_t ordinal = 0; ordinal < puts; ++ordinal) {
            if (rng.nextBool(0.3)) {
                if (!spec.empty())
                    spec += ',';
                spec += rng.nextBool(0.5) ? "shortwrite@" : "enospc@";
                spec += std::to_string(ordinal);
            }
        }
        SCOPED_TRACE(spec);
        FaultInjector injector;
        ASSERT_TRUE(FaultInjector::parse(spec, injector));
        ResultStore::Options options;
        options.dir = dir;
        options.maxSegmentBytes = segmentLimits[seed % 3];

        std::map<std::string, std::string> acknowledged;
        uint64_t shortWrites = 0;
        bool lastWriteShort = false;
        const bool closes = rng.nextBool(0.5);
        {
            options.injector = &injector;
            ResultStore store;
            ASSERT_TRUE(store.open(options));
            for (uint64_t n = 0; n < puts; ++n) {
                const uint64_t k = rng.nextBelow(6);
                std::string key = "k";
                key += std::to_string(k);
                JsonValue record = JsonValue::object();
                record.set("value", JsonValue::integer(k));
                // A key already acknowledged is an index hit: no write,
                // no put ordinal.
                const uint64_t ordinal = store.stats().appendAttempts;
                const bool writes = !acknowledged.count(key) &&
                                    !injector.fires(FaultKind::Enospc,
                                                    ordinal);
                const bool shortWrite =
                    writes && injector.fires(FaultKind::ShortWrite, ordinal);
                EXPECT_EQ(store.put(key, record),
                          acknowledged.count(key) || (writes && !shortWrite));
                if (writes) {
                    shortWrites += shortWrite;
                    lastWriteShort = shortWrite;
                    if (!shortWrite)
                        acknowledged.emplace(key, record.dump());
                }
            }
            if (closes) {
                ASSERT_TRUE(store.close());
            }
            options.injector = nullptr;
        }
        const bool tornTail = !closes && lastWriteShort;
        crashes += !closes;
        torn += tornTail;
        quarantining += shortWrites > (tornTail ? 1u : 0u);

        // fsck without --strict: open refuses nothing a history writes.
        EXPECT_EQ(planOpen(readStoreFiles(dir).value()).refusal, "");
        ResultStore store;
        ASSERT_TRUE(store.open(options));
        EXPECT_EQ(servedMap(store), acknowledged);
        EXPECT_EQ(store.stats().corruptFrames,
                  shortWrites - (tornTail ? 1 : 0));
        EXPECT_EQ(store.stats().tornTail, tornTail);
        EXPECT_TRUE(!closes || !store.stats().recovered);
    }
    test::wipeDir(dir);

    // Every ending must occur, or the histories test nothing.
    EXPECT_GT(crashes, 0u);
    EXPECT_LT(crashes, 48u);
    EXPECT_GT(torn, 0u);
    EXPECT_GT(quarantining, 0u);
}
