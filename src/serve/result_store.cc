#include "serve/result_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "fault/injector.hh"
#include "metrics/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace_event.hh"
#include "report/record.hh"
#include "serve/request.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace specfetch {

namespace {

/** "<crc32 hex> <text>": the one statement of the frame format. */
std::string
frameText(const std::string &text)
{
    return crcHex(crc32(text)) + " " + text;
}

} // namespace

std::string
frameLine(const JsonValue &payload)
{
    return frameText(payload.dump());
}

bool
parseFrameLine(const std::string &line, JsonValue &payload,
               std::string &reason)
{
    // "<8 hex chars><space><json>"
    if (line.size() < 10 || line[8] != ' ') {
        reason = "malformed framing";
        return false;
    }
    uint32_t stored = 0;
    if (!parseCrcHex(line.substr(0, 8), stored)) {
        reason = "unparsable checksum";
        return false;
    }
    std::string text = line.substr(9);
    if (crc32(text) != stored) {
        reason = "checksum mismatch";
        return false;
    }
    std::string parseError;
    if (!JsonValue::parse(text, payload, &parseError)) {
        reason = "checksummed payload is not JSON: " + parseError;
        return false;
    }
    return true;
}

namespace {

std::string
joinPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name;
}

/**
 * Every segment is named tail-1-<K>.log, and every segment header and
 * CLEAN marker says "generation":1. A format constant: stores written
 * while a compaction could raise it still open unchanged.
 */
constexpr uint64_t kGeneration = 1;

std::string
tailFileName(uint64_t generation, uint64_t segment)
{
    return "tail-" + std::to_string(generation) + "-" +
           std::to_string(segment) + ".log";
}

/** Digits past 2^64 wrap; the caller's canonical-name check refuses
 *  them rather than let them alias a smaller number. */
bool
parseAllDigits(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    out = value;
    return true;
}

/** tail-<G>-<K>.log */
bool
parseTailName(const std::string &name, uint64_t &generation,
              uint64_t &segment)
{
    if (name.rfind("tail-", 0) != 0)
        return false;
    if (name.size() <= 9 || name.compare(name.size() - 4, 4, ".log") != 0)
        return false;
    std::string body = name.substr(5, name.size() - 9);
    size_t dash = body.find('-');
    if (dash == std::string::npos)
        return false;
    return parseAllDigits(body.substr(0, dash), generation) &&
           parseAllDigits(body.substr(dash + 1), segment);
}

/** base-*.log / base-*.tmp: what an older build's compaction wrote. */
bool
isBaseName(const std::string &name)
{
    if (name.rfind("base-", 0) != 0 || name.size() < 9)
        return false;
    std::string suffix = name.substr(name.size() - 4);
    return suffix == ".log" || suffix == ".tmp";
}

/** Make a directory entry change (create/rename/unlink) durable. */
void
syncDirectory(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    fsync(fd);
    ::close(fd);
}

/**
 * Durably make @p text (non-empty) the bytes of @p dir/@p name in
 * place: pwrite at offset 0, ftruncate to text's length, fsync. On a
 * `discard` mount, freeing a freshly fsync'd block (an unlink, a
 * truncation to zero, a rename over the file) waits tens of
 * milliseconds; a small file rewritten in place keeps its block. With
 * @p create a missing file is created, and only then is @p dir
 * fsync'd.
 */
bool
rewriteInPlace(const std::string &dir, const std::string &name,
               const std::string &text, bool create)
{
    const std::string path = joinPath(dir, name);
    bool created = false;
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0 && errno == ENOENT && create) {
        fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                    0666);
        created = fd >= 0;
    }
    if (fd < 0)
        return false;
    const bool ok =
        pwrite(fd, text.data(), text.size(), 0) ==
            static_cast<ssize_t>(text.size()) &&
        ftruncate(fd, static_cast<off_t>(text.size())) == 0 && fsync(fd) == 0;
    ::close(fd);
    if (ok && created)
        syncDirectory(dir);
    return ok;
}

/** Durably cut @p path to its first @p size bytes (remove it when 0:
 *  a tail without its header frame is no segment). */
void
truncateFile(const std::string &path, size_t size)
{
    if (size == 0) {
        std::remove(path.c_str());
        return;
    }
    int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return;
    if (ftruncate(fd, static_cast<off_t>(size)) == 0)
        fsync(fd);
    ::close(fd);
}

std::string
headerFrame(uint64_t segment)
{
    JsonValue header = JsonValue::object();
    header.set("schema_version", JsonValue::integer(1))
        .set("generation", JsonValue::integer(kGeneration))
        .set("segment", JsonValue::integer(segment));
    JsonValue payload = JsonValue::object();
    payload.set("store_header", std::move(header));
    return frameLine(payload);
}

/** frameLine of {"key":key,"record":record}, built by concatenation
 *  from @p recordJson, the record's dump(). */
std::string
dataFrame(const std::string &key, std::string_view recordJson)
{
    std::string text = "{\"key\":" + JsonValue::escape(key) + ",\"record\":";
    text.append(recordJson);
    text.push_back('}');
    return frameText(text);
}

/**
 * What CLEAN holds while a session is open: a frame with no
 * clean_shutdown member, so it vouches for nothing, and a crash before
 * close() makes the next open a recovery scan.
 */
std::string
sessionOpenMarker()
{
    JsonValue session = JsonValue::object();
    session.set("generation", JsonValue::integer(kGeneration));
    JsonValue payload = JsonValue::object();
    payload.set("session_open", std::move(session));
    return frameLine(payload) + "\n";
}

/** What close() leaves in CLEAN: the record count it vouches for. */
std::string
cleanShutdownMarker(uint64_t records)
{
    JsonValue clean = JsonValue::object();
    clean.set("generation", JsonValue::integer(kGeneration))
        .set("records", JsonValue::integer(records));
    JsonValue payload = JsonValue::object();
    payload.set("clean_shutdown", std::move(clean));
    return frameLine(payload) + "\n";
}

/** Why @p marker does not vouch for segments holding @p records keys
 *  ("" when it does). */
std::string
cleanMismatch(const std::string &marker, uint64_t records)
{
    if (marker.empty() || marker.find('\n') != marker.size() - 1)
        return "CLEAN is not one terminated frame";
    JsonValue payload;
    std::string reason;
    if (!parseFrameLine(marker.substr(0, marker.size() - 1), payload,
                        reason))
        return "CLEAN fails its frame check (" + reason + ")";
    if (payload.find("session_open"))
        return "CLEAN marks a session that is open or ended without close()";
    const JsonValue *clean = payload.find("clean_shutdown");
    if (!clean || !clean->isObject())
        return "CLEAN is not a clean_shutdown marker";
    const JsonValue *generation = clean->find("generation");
    if (!generation || *generation != JsonValue::integer(kGeneration)) {
        return "CLEAN names generation " +
               (generation ? generation->dump() : std::string("none")) +
               ", not " + std::to_string(kGeneration);
    }
    const JsonValue *said = clean->find("records");
    if (!said || *said != JsonValue::integer(records)) {
        return "CLEAN says " + (said ? said->dump() : std::string("no")) +
               " record(s) but the segments hold " + std::to_string(records);
    }
    return "";
}

/** Scan one segment into @p plan; @p newest marks the last tail, whose
 *  torn final line is cut rather than quarantined. */
void
planSegment(OpenPlan &plan, const std::string &name, uint64_t segment,
            const std::string &bytes, bool newest)
{
    size_t lineNumber = 0;
    auto finding = [&](const std::string &what) {
        plan.findings.push_back(name + ":" + std::to_string(lineNumber) +
                                ": " + what);
    };
    auto quarantine = [&](const std::string &reason, const std::string &line) {
        ++plan.stats.corruptFrames;
        JsonValue row = JsonValue::object();
        row.set("file", JsonValue::string(name))
            .set("line", JsonValue::integer(lineNumber))
            .set("reason", JsonValue::string(reason))
            .set("raw", JsonValue::string(line.substr(0, 160)));
        plan.quarantine.push_back(std::move(row));
        finding("quarantining frame (" + reason + ")");
    };
    size_t start = 0;
    while (start < bytes.size()) {
        size_t lineStart = start;
        size_t end = bytes.find('\n', start);
        bool unterminated = end == std::string::npos;
        std::string line = bytes.substr(
            start, unterminated ? std::string::npos : end - start);
        start = unterminated ? bytes.size() : end + 1;
        ++lineNumber;
        if (line.empty())
            continue;

        JsonValue payload;
        std::string reason;
        if (!parseFrameLine(line, payload, reason)) {
            if (unterminated && newest) {
                // The crash-mid-append signature: at most the put in
                // flight is lost, exactly as advertised.
                plan.stats.tornTail = true;
                plan.cuts.emplace_back(name, lineStart);
                finding("dropping torn tail line (" + reason + ")");
            } else {
                quarantine(reason, line);
            }
            continue;
        }

        if (const JsonValue *header = payload.find("store_header")) {
            const JsonValue *gen =
                header->isObject() ? header->find("generation") : nullptr;
            const JsonValue *number =
                header->isObject() ? header->find("segment") : nullptr;
            if (!gen || !gen->isUint() || gen->asUint() != kGeneration ||
                !number || !number->isUint() || number->asUint() != segment) {
                quarantine("header names another generation/segment", line);
            }
            continue;
        }
        const JsonValue *key = payload.find("key");
        const JsonValue *record = payload.find("record");
        if (!key || !key->isString() || !record || !record->isObject()) {
            quarantine("frame lacks a known shape", line);
            continue;
        }
        // First write wins: records are content-addressed, so any
        // duplicate is byte-identical anyway. The index keeps the
        // record's dump(), the text a hit serves.
        auto [slot, inserted] = plan.index.try_emplace(key->asString());
        if (inserted) {
            slot->second = record->dump();
        } else {
            finding("duplicate key " + key->asString() +
                    " (the first one wins)");
        }
    }
}

} // namespace

std::optional<StoreFiles>
readStoreFiles(const std::string &dir, std::string *error)
{
    DIR *handle = opendir(dir.c_str());
    if (!handle) {
        if (error)
            *error = "cannot list " + dir + ": " + std::strerror(errno);
        return std::nullopt;
    }
    std::optional<StoreFiles> files(std::in_place);
    while (struct dirent *entry = readdir(handle)) {
        const std::string path = joinPath(dir, entry->d_name);
        struct stat info;
        if (stat(path.c_str(), &info) != 0 || !S_ISREG(info.st_mode))
            continue; // ".", "..", and nothing a store writes
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            if (error)
                *error = "cannot read " + path + ": " + std::strerror(errno);
            files.reset();
            break;
        }
        std::ostringstream bytes;
        bytes << in.rdbuf();
        (*files)[entry->d_name] = bytes.str();
    }
    closedir(handle);
    return files;
}

OpenPlan
planOpen(const StoreFiles &files)
{
    // Refuse before planning anything: a file this build would misread
    // is reported by name, and the directory is left as it was found.
    auto refuse = [](const std::string &name, const std::string &why) {
        OpenPlan refused;
        refused.refusal = name + " " + why;
        return refused;
    };
    OpenPlan plan;
    std::map<uint64_t, std::string> tails;
    for (const auto &entry : files) {
        const std::string &name = entry.first;
        uint64_t generation = 0;
        uint64_t segment = 0;
        if (isBaseName(name)) {
            return refuse(name, "is a compacted base, which only an older "
                                "build's compaction writes");
        }
        if (parseTailName(name, generation, segment)) {
            std::string canonical = tailFileName(generation, segment);
            if (name != canonical) {
                return refuse(name, "is not a canonical segment name (it "
                                    "would alias " + canonical + ")");
            }
            if (generation != kGeneration) {
                return refuse(name, "is a segment of another generation, "
                                    "which only an older build's "
                                    "compaction writes");
            }
            tails[segment] = name;
        } else if (name != kStoreCleanMarker &&
                   name != kStoreQuarantineFile) {
            plan.findings.push_back(name + ": not a store file; ignored");
        }
    }

    for (auto it = tails.begin(); it != tails.end(); ++it) {
        planSegment(plan, it->second, it->first, files.at(it->second),
                    std::next(it) == tails.end());
        plan.nextSegment = it->first + 1;
    }
    plan.stats.records = plan.index.size();
    plan.stats.segmentsLoaded = tails.size();

    // A missing marker makes this open a recovery scan, and so does a
    // session-open one or one that disagrees with the segments: a lost
    // segment shows as a record count the segments no longer reach.
    auto clean = files.find(kStoreCleanMarker);
    std::string mismatch;
    if (clean == files.end()) {
        if (!tails.empty())
            mismatch = "no clean-shutdown marker";
    } else {
        mismatch = cleanMismatch(clean->second, plan.stats.records);
        plan.cleanRewrite = sessionOpenMarker();
    }
    if (!mismatch.empty()) {
        plan.stats.recovered = true;
        plan.findings.push_back(mismatch + "; running a recovery scan");
    }
    return plan;
}

ResultStore::~ResultStore()
{
    // Deliberately no clean-shutdown marker: destruction without
    // close() is indistinguishable from a crash, which is exactly what
    // crash tests (and crashed services) need — and a crash writes no
    // fence after a partial frame either.
    dirty = false;
    closeTail();
    unlockDirectory();
}

void
ResultStore::unlockDirectory()
{
    if (dirLock >= 0)
        ::close(dirLock); // closing the descriptor drops its flock
    dirLock = -1;
}

bool
ResultStore::open(const Options &options, std::string *error)
{
    LatencyTimer timer(options.metrics
                           ? &options.metrics->histogram("store.open_us")
                           : nullptr);
    std::lock_guard<std::mutex> lock(mutex);
    if (opened) {
        if (error)
            *error = "store is already open";
        return false;
    }
    opts = options;
    index.clear();
    state = Stats{};
    dirty = false;

    if (mkdir(opts.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (error) {
            *error = "cannot create store directory " + opts.dir + ": " +
                     std::strerror(errno);
        }
        return false;
    }
    // One writer per directory: two handles appending to the same
    // tail would interleave (and truncate) each other's frames. The
    // lock lives on the directory's own descriptor, so it needs no
    // extra file and dies with the process.
    dirLock = ::open(opts.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dirLock < 0 || flock(dirLock, LOCK_EX | LOCK_NB) != 0) {
        if (error) {
            *error = "result store " + opts.dir +
                     (errno == EWOULDBLOCK
                          ? " is already open in another handle or process"
                          : ": cannot lock: " +
                                std::string(std::strerror(errno)));
        }
        unlockDirectory();
        return false;
    }
    std::optional<StoreFiles> files = readStoreFiles(opts.dir, error);
    if (!files) {
        unlockDirectory();
        return false;
    }
    OpenPlan plan = planOpen(*files);
    if (!plan.refusal.empty()) {
        if (error) {
            *error = "result store " + opts.dir + ": refusing to open: " +
                     plan.refusal;
        }
        unlockDirectory();
        return false;
    }
    for (const std::string &finding : plan.findings)
        warn("result store %s: %s", opts.dir.c_str(), finding.c_str());

    // Until close(), CLEAN vouches for nothing. It is rewritten, never
    // unlinked: see rewriteInPlace.
    if (!plan.cleanRewrite.empty() &&
        !rewriteInPlace(opts.dir, kStoreCleanMarker, plan.cleanRewrite,
                        /*create=*/false)) {
        warn("result store %s: cannot rewrite %s: %s", opts.dir.c_str(),
             kStoreCleanMarker, std::strerror(errno));
    }
    // Cut each stub off so it cannot become an interior frame once a
    // newer tail exists.
    for (const auto &[name, keep] : plan.cuts)
        truncateFile(joinPath(opts.dir, name), keep);
    // Nothing retires a quarantined frame, so every open skips it again:
    // the sidecar lists exactly what this open skipped.
    const std::string sidecar = joinPath(opts.dir, kStoreQuarantineFile);
    if (plan.quarantine.empty()) {
        std::remove(sidecar.c_str());
    } else if (std::FILE *file = std::fopen(sidecar.c_str(), "wb")) {
        for (const JsonValue &row : plan.quarantine) {
            std::string text = row.dump() + "\n";
            std::fwrite(text.data(), 1, text.size(), file);
        }
        std::fclose(file);
    }
    // A torn tail's removal must not come back.
    if (!plan.cuts.empty())
        syncDirectory(opts.dir);

    index = std::move(plan.index);
    state = plan.stats;
    nextTailIndex = plan.nextSegment;
    if (opts.metrics) {
        putLatency = &opts.metrics->histogram("store.put_us");
        getLatency = &opts.metrics->histogram("store.get_us");
        fsyncLatency = &opts.metrics->histogram("store.fsync_us");
        getHits = &opts.metrics->counter("store.get_hits");
        getMisses = &opts.metrics->counter("store.get_misses");
        tailBytesGauge = &opts.metrics->gauge("store.tail_bytes");
    } else {
        putLatency = getLatency = fsyncLatency = nullptr;
        getHits = getMisses = nullptr;
        tailBytesGauge = nullptr;
    }
    opened = true;
    return true;
}

bool
ResultStore::get(const std::string &key, std::string &recordJson) const
{
    LatencyTimer timer(getLatency);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(key);
    if (it == index.end()) {
        if (getMisses)
            getMisses->add();
        return false;
    }
    recordJson = it->second;
    if (getHits)
        getHits->add();
    return true;
}

bool
ResultStore::get(const std::string &key, JsonValue &record) const
{
    std::string recordJson;
    return get(key, recordJson) && JsonValue::parse(recordJson, record);
}

bool
ResultStore::fenceTail()
{
    // Terminate the partial line a failed write left behind so the
    // next frame starts clean (the loader quarantines the stub).
    if (std::fputc('\n', tail) == EOF)
        return false;
    {
        LatencyTimer timer(fsyncLatency);
        if (std::fflush(tail) != 0 || fsync(fileno(tail)) != 0)
            return false;
    }
    dirty = false;
    tailBytes += 1;
    return true;
}

bool
ResultStore::writeFrame(const std::string &line, bool withNewline)
{
    if (dirty && !fenceTail())
        return false;
    std::string text = withNewline ? line + "\n" : line;
    size_t wrote = std::fwrite(text.data(), 1, text.size(), tail);
    bool ok = wrote == text.size();
    if (ok) {
        LatencyTimer timer(fsyncLatency);
        ok = std::fflush(tail) == 0 && fsync(fileno(tail)) == 0;
    }
    tailBytes += wrote;
    if (tailBytesGauge)
        tailBytesGauge->set(tailBytes);
    return ok;
}

bool
ResultStore::ensureTail(std::string *error)
{
    if (tail && tailBytes >= opts.maxSegmentBytes)
        closeTail();
    if (tail)
        return true;
    std::string name = tailFileName(kGeneration, nextTailIndex);
    std::string path = joinPath(opts.dir, name);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        if (error)
            *error = "cannot open segment " + path + ": " +
                     std::strerror(errno);
        return false;
    }
    tail = file;
    tailName = name;
    tailBytes = 0;
    dirty = false;
    ++nextTailIndex;
    if (!writeFrame(headerFrame(nextTailIndex - 1), true)) {
        if (error)
            *error = "cannot write segment header of " + path;
        closeTail();
        return false;
    }
    // The file itself must survive a crash, not just its bytes.
    syncDirectory(opts.dir);
    return true;
}

void
ResultStore::closeTail()
{
    if (!tail)
        return;
    // A rotation or close() right after a short write must not leave
    // an older segment ending in the unterminated stub.
    if (dirty)
        fenceTail();
    std::fclose(tail);
    tail = nullptr;
    tailName.clear();
    tailBytes = 0;
    dirty = false;
}

bool
ResultStore::put(const std::string &key, const JsonValue &record,
                 std::string *error)
{
    return put(key, record.dump(), error);
}

bool
ResultStore::put(const std::string &key, std::string_view recordJson,
                 std::string *error)
{
    LatencyTimer timer(putLatency);
    std::lock_guard<std::mutex> lock(mutex);
    if (!opened) {
        if (error)
            *error = "store is not open";
        return false;
    }
    if (index.count(key)) {
        ++state.duplicatePuts;
        return true;
    }
    uint64_t ordinal = state.appendAttempts++;
    const FaultInjector *injector = opts.injector;
    if (injector && injector->fires(FaultKind::Enospc, ordinal)) {
        warn("result store: injected ENOSPC on put %llu",
             static_cast<unsigned long long>(ordinal));
        if (error)
            *error = "injected disk full";
        return false;
    }
    if (!ensureTail(error))
        return false;

    std::string line = dataFrame(key, recordJson);
    if (injector && injector->fires(FaultKind::ShortWrite, ordinal)) {
        // Persist a prefix cut mid-JSON, then fail: the torn frame is
        // on disk, the process survives, the next put resyncs.
        writeFrame(line.substr(0, 10 + line.size() / 2), false);
        dirty = true;
        warn("result store: injected short write on put %llu",
             static_cast<unsigned long long>(ordinal));
        if (error)
            *error = "injected short write";
        return false;
    }
    if (injector && injector->fires(FaultKind::Tear, ordinal)) {
        writeFrame(line.substr(0, 10 + line.size() / 2), false);
        warn("injected fault: tearing the store at put %llu",
             static_cast<unsigned long long>(ordinal));
        std::_Exit(kCrashExitCode);
    }
    if (!writeFrame(line, true)) {
        dirty = true;
        if (error)
            *error = "append to " + tailName + " failed: " +
                     std::strerror(errno);
        return false;
    }
    if (injector && injector->fires(FaultKind::Crash, ordinal)) {
        // Die after the durable write, before acknowledging: reopening
        // must serve this record (the client will simply resubmit).
        warn("injected fault: crashing after put %llu",
             static_cast<unsigned long long>(ordinal));
        std::_Exit(kCrashExitCode);
    }
    index.emplace(key, recordJson);
    ++state.records;
    return true;
}

bool
ResultStore::close(std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (!opened)
        return true;
    closeTail();
    const bool ok = rewriteInPlace(opts.dir, kStoreCleanMarker,
                                   cleanShutdownMarker(state.records),
                                   /*create=*/true);
    unlockDirectory();
    opened = false;
    if (!ok && error) {
        *error = "cannot write clean-shutdown marker " +
                 joinPath(opts.dir, kStoreCleanMarker);
    }
    return ok;
}

size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return index.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return state;
}

JsonValue
ResultStore::openSummaryRecord() const
{
    Stats snapshot = stats();
    JsonValue record = JsonValue::object();
    record.set("schema_version", JsonValue::integer(kReportSchemaVersion))
        .set("record", JsonValue::string("store_open"))
        .set("dir", JsonValue::string(opts.dir))
        .set("store", toJson(snapshot));
    return record;
}

JsonValue
toJson(const ResultStore::Stats &stats)
{
    JsonValue out = JsonValue::object();
    out.set("records", JsonValue::integer(stats.records))
        .set("segments_loaded", JsonValue::integer(stats.segmentsLoaded))
        .set("corrupt_frames", JsonValue::integer(stats.corruptFrames))
        .set("duplicate_puts", JsonValue::integer(stats.duplicatePuts))
        .set("append_attempts", JsonValue::integer(stats.appendAttempts))
        .set("torn_tail", JsonValue::boolean(stats.tornTail))
        .set("recovered", JsonValue::boolean(stats.recovered));
    return out;
}

void
ResultStore::forEach(
    const std::function<void(const std::string &, const std::string &)>
        &visit) const
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[key, record] : index)
        visit(key, record);
}

StoreSweepResult
runStoreSweep(ResultStore &store, const std::vector<RunSpec> &specs,
              SweepOptions options, const RecordMaker &makeRecord)
{
    StoreSweepResult result;
    result.records.resize(specs.size());
    std::vector<std::string> keys(specs.size());
    std::vector<size_t> misses;
    std::vector<RunSpec> missSpecs;
    {
        TraceSpan span("store_resume", "fault");
        for (size_t i = 0; i < specs.size(); ++i) {
            keys[i] = sweepRunKey(specs[i]);
            if (store.get(keys[i], result.records[i])) {
                ++result.resumedRuns;
                ProgressReporter::global().runResumed();
            } else {
                misses.push_back(i);
                missSpecs.push_back(specs[i]);
            }
        }
    }

    // Each miss index completes once, on one worker: its record slot
    // needs no lock, and the store serializes the puts. The sweep
    // classifies every row before its first run completes.
    std::vector<Classification> classifications;
    options.classifications = &classifications;
    // SPECFETCH-ALLOW(error-boundary): put() reports I/O failure by return value; the flagged chain is MetricGauge::set name-matched to ProgramImage::set
    options.onRunComplete = [&](size_t miss, const SimResults &results) {
        size_t index = misses[miss];
        result.records[index] =
            makeRecord(index, results, classifications[miss]);
        std::string error;
        if (!store.put(keys[index], result.records[index], &error)) {
            warn("result store: run %zu not persisted (%s); a rerun "
                 "executes it again",
                 index, error.c_str());
        }
    };
    SweepOutcome outcome = runSweep(missSpecs, options);
    result.executedRuns = misses.size() - outcome.failures.size();
    for (SweepFailure &failure : outcome.failures) {
        failure.index = misses[failure.index];
        result.failures.push_back(std::move(failure));
    }
    return result;
}

} // namespace specfetch
