/**
 * @file
 * Shared helpers for fetch-engine tests: builders for tiny
 * hand-laid-out programs whose slot accounting can be computed by
 * hand, run the way every replayed grid run is run — recorded into a
 * TraceSnapshot and replayed through SnapshotReplaySource.
 */

#ifndef SPECFETCH_TESTS_CORE_ENGINE_TEST_SUPPORT_HH_
#define SPECFETCH_TESTS_CORE_ENGINE_TEST_SUPPORT_HH_

#include <vector>

#include "core/fetch_engine.hh"
#include "isa/program_image.hh"
#include "trace/snapshot.hh"
#include "workload/executor.hh"

namespace specfetch {
namespace test {

/** Feeds a fixed vector of instructions (to TraceSnapshot::record). */
class ScriptedSource : public InstructionSource
{
  public:
    explicit ScriptedSource(std::vector<DynInst> _script)
        : script(std::move(_script))
    {
    }

    bool
    next(DynInst &out) override
    {
        if (index >= script.size())
            return false;
        out = script[index++];
        return true;
    }

  private:
    std::vector<DynInst> script;
    size_t index = 0;
};

/**
 * Incremental builder for a correct-path script plus the matching
 * program image. Addresses advance automatically; wrong-path regions
 * can be laid into the image without appearing in the script.
 */
class ProgramScript
{
  public:
    /** @param base        Image base (line aligned for easy math).
     *  @param image_insts Image capacity in instructions. */
    explicit ProgramScript(Addr base = 0x10000, size_t image_insts = 4096)
        : image_(base, image_insts), cursor(base)
    {
    }

    /** Current script position (next pc to be appended). */
    Addr pc() const { return cursor; }

    /** Append @p count plain instructions at the cursor. */
    void
    plains(unsigned count)
    {
        for (unsigned i = 0; i < count; ++i) {
            image_.set(cursor, StaticInst{InstClass::Plain, 0});
            script_.push_back(DynInst{cursor, InstClass::Plain, false, 0});
            cursor += kInstBytes;
        }
    }

    /** Append a control instruction; the script continues at its
     *  dynamic destination. */
    void
    control(InstClass cls, bool taken, Addr target)
    {
        Addr static_target = hasStaticTarget(cls) ? target : 0;
        image_.set(cursor, StaticInst{cls, static_target});
        script_.push_back(DynInst{cursor, cls, taken, target});
        cursor = taken ? target : cursor + kInstBytes;
    }

    /** Define image-only content (wrong-path code) at @p addr. */
    void
    imageOnly(Addr addr, InstClass cls, Addr target = 0)
    {
        image_.set(addr, StaticInst{cls, target});
    }

    /** Fill [addr, addr + count*4) with image-only plains. */
    void
    imagePlains(Addr addr, unsigned count)
    {
        for (unsigned i = 0; i < count; ++i)
            image_.set(addr + i * kInstBytes, StaticInst{});
    }

    /** The script as a replayable stream; @p max_plain_run = 1 makes
     *  every plain its own single-instruction run record. */
    TraceSnapshot
    snapshot(uint32_t max_plain_run = TraceSnapshot::kMaxPlainRun) const
    {
        ScriptedSource source(script_);
        return TraceSnapshot::record(source, script_.size(), max_plain_run);
    }

    const ProgramImage &image() const { return image_; }
    size_t scriptLength() const { return script_.size(); }

  private:
    ProgramImage image_;
    std::vector<DynInst> script_;
    Addr cursor;
};

/** Baseline config sized to a script: issue 4, decode 2, resolve 4,
 *  miss 5 cycles, 8K DM cache, Oracle policy, no prefetch. */
inline SimConfig
scriptConfig(const ProgramScript &script, FetchPolicy policy)
{
    SimConfig config;
    config.policy = policy;
    config.instructionBudget = script.scriptLength();
    return config;
}

/** Run a policy over a script's replayed snapshot and return the
 *  results. */
inline SimResults
runScript(const ProgramScript &script, FetchPolicy policy,
          SimConfig *config_out = nullptr)
{
    SimConfig config = scriptConfig(script, policy);
    if (config_out)
        config = *config_out;
    TraceSnapshot snap = script.snapshot();
    SnapshotReplaySource source(snap);
    FetchEngine engine(config, script.image());
    return engine.runWith(source);
}

/**
 * Pre-warm every line of the image into an engine's cache by running
 * a plains-only script... not possible through the public API, so
 * tests that need warm caches simply lay out their script to touch
 * the lines first (cheap and explicit).
 */

} // namespace test
} // namespace specfetch

#endif // SPECFETCH_TESTS_CORE_ENGINE_TEST_SUPPORT_HH_
