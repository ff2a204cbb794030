#include "trace/trace_file.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace specfetch {

namespace {

/** magic + version + image base + image count. */
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

void
putLe(std::vector<uint8_t> &out, uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

uint64_t
getLe(const uint8_t *data, int bytes)
{
    uint64_t value = 0;
    for (int i = bytes - 1; i >= 0; --i)
        value = (value << 8) | data[i];
    return value;
}

[[noreturn]] void
corrupt(const std::string &what)
{
    throw TraceError(what);
}

} // namespace

void
writeTraceFile(const std::string &path, const ProgramImage &image,
               const TraceSnapshot &snapshot)
{
    std::vector<uint8_t> bytes;
    putLe(bytes, kTraceMagic, 4);
    putLe(bytes, kTraceVersion, 4);
    putLe(bytes, image.base(), 8);
    putLe(bytes, image.size(), 8);
    for (size_t i = 0; i < image.size(); ++i) {
        bytes.push_back(static_cast<uint8_t>(image[i].cls));
        if (hasStaticTarget(image[i].cls))
            putLe(bytes, image[i].target, 8);
    }
    snapshot.serialize(bytes);

    std::FILE *file = std::fopen(path.c_str(), "wb");
    fatal_if(!file, "cannot create trace file '%s'", path.c_str());
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
    bool closed = std::fclose(file) == 0;
    fatal_if(written != bytes.size() || !closed,
             "short write to trace file '%s'", path.c_str());
}

TraceFile
parseTraceFile(std::span<const uint8_t> bytes)
{
    const uint8_t *data = bytes.data();
    const size_t size = bytes.size();

    if (size < kHeaderBytes)
        corrupt("truncated trace header");
    if (getLe(data, 4) != kTraceMagic)
        corrupt("not a specfetch trace");
    uint64_t version = getLe(data + 4, 4);
    if (version != kTraceVersion) {
        corrupt("trace version " + std::to_string(version) +
                " unsupported (want " + std::to_string(kTraceVersion) +
                ")");
    }
    uint64_t base = getLe(data + 8, 8);
    uint64_t count = getLe(data + 16, 8);

    // Each image record is at least one byte, so a count beyond the
    // input's own size is a lie — refuse it before the allocation, or
    // 24 bytes of garbage could demand terabytes.
    if (count > size - kHeaderBytes) {
        corrupt("trace image count " + std::to_string(count) +
                " exceeds what " + std::to_string(size) +
                " bytes can hold");
    }
    // ProgramImage panics on a misaligned base, and a misaligned
    // address anywhere would stall the wrong-path walker's line
    // stepping, so alignment is refused here, at the boundary.
    if (base % kInstBytes != 0)
        corrupt("trace image base " + hexString(base) + " misaligned");
    if (base > std::numeric_limits<uint64_t>::max() - count * kInstBytes)
        corrupt("trace image range overflows the address space");

    TraceFile trace{ProgramImage(base, count), TraceSnapshot{}};
    size_t offset = kHeaderBytes;
    for (size_t i = 0; i < count; ++i) {
        if (offset >= size)
            corrupt("truncated trace image");
        uint8_t cls = data[offset++];
        if (cls > static_cast<uint8_t>(InstClass::IndirectCall)) {
            corrupt("invalid instruction class " + std::to_string(cls) +
                    " in trace image record " + std::to_string(i));
        }
        StaticInst inst{static_cast<InstClass>(cls), 0};
        if (hasStaticTarget(inst.cls)) {
            if (size - offset < 8)
                corrupt("truncated trace image target");
            inst.target = getLe(data + offset, 8);
            offset += 8;
            if (inst.target % kInstBytes != 0) {
                corrupt("trace image record " + std::to_string(i) +
                        " target " + hexString(inst.target) +
                        " misaligned");
            }
        }
        trace.image[i] = inst;
    }
    trace.image.finalizeRuns();

    std::string why;
    if (!TraceSnapshot::deserialize(data + offset, size - offset,
                                    trace.snapshot, &why))
        corrupt("corrupt trace stream: " + why);
    return trace;
}

TraceFile
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        corrupt("cannot open trace file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    try {
        return parseTraceFile(
            {reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size()});
    } catch (const TraceError &error) {
        corrupt("'" + path + "': " + error.what());
    }
}

} // namespace specfetch
