/**
 * @file
 * On-disk trace file: a program image followed by a serialized
 * TraceSnapshot (DESIGN.md §9).
 *
 * The paper used ATOM instrumentation, which lets the simulator run
 * without stored traces; we support both modes — live execution
 * (workload::Executor) and stored traces. A trace file carries the
 * *static program image* in addition to the dynamic stream, because
 * wrong-path simulation needs to fetch instructions the correct path
 * never executed. The dynamic stream is the same encoding every sweep
 * replays in memory, so a file replays through SnapshotReplaySource.
 *
 * Layout (little-endian):
 *   header:  magic 'SFTR', u32 version, u64 imageBase, u64 imageCount
 *   image:   imageCount records: u8 class, then a u64 target for the
 *            classes with a static target (CondBranch, Jump, Call)
 *   stream:  TraceSnapshot::serialize() bytes, up to EOF (the start PC
 *            lives in the snapshot)
 */

#ifndef SPECFETCH_TRACE_TRACE_FILE_HH_
#define SPECFETCH_TRACE_TRACE_FILE_HH_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "isa/program_image.hh"
#include "trace/snapshot.hh"

namespace specfetch {

/**
 * A malformed or truncated trace file. Trace bytes are untrusted
 * input, so the reader reports damage as this typed error — callers
 * choose between catching it (harnesses, tests) and letting it
 * terminate (simple tools) — instead of treating it as a simulator
 * bug (panic/abort) or undefined behaviour.
 */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** 'SFTR' in little-endian. */
constexpr uint32_t kTraceMagic = 0x52544653;
/** Version 1 (a varint stream) and version 2 (16 bytes per control)
 *  files are refused. */
constexpr uint32_t kTraceVersion = 3;

/** A loaded trace: the image the engine fetches wrong paths from and
 *  the correct-path stream it replays. */
struct TraceFile
{
    ProgramImage image;
    TraceSnapshot snapshot;
};

/** Create/truncate @p path and write @p image and @p snapshot to it. */
void writeTraceFile(const std::string &path, const ProgramImage &image,
                    const TraceSnapshot &snapshot);

/**
 * Parse the bytes of a trace file. Every read is bounds-checked, the
 * image count is checked against the input size before anything is
 * allocated, and the stream goes through TraceSnapshot::deserialize
 * (digest, then validate()).
 * @throws TraceError naming the damage on malformed bytes.
 */
TraceFile parseTraceFile(std::span<const uint8_t> bytes);

/**
 * Load a trace file: read @p path and parseTraceFile() its bytes.
 * @throws TraceError naming @p path and the damage on an unreadable or
 *         malformed file.
 */
TraceFile readTraceFile(const std::string &path);

} // namespace specfetch

#endif // SPECFETCH_TRACE_TRACE_FILE_HH_
