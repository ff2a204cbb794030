/**
 * @file
 * Deterministic fault injection for the guarded sweep and the result
 * store (DESIGN.md §10). Every recovery path — retry, live-executor
 * fallback, quarantine, store recovery — is exercised by *forcing* the
 * corresponding fault at a chosen ordinal, so the failure domain is
 * tested in CI rather than trusted on faith.
 *
 * A spec is a comma-separated list of directives:
 *
 *   throw@5          run 5 throws on its first attempt (retry heals it)
 *   throw@5x3        ... on its first three attempts
 *   throw@5x*        ... on every attempt (the run is quarantined)
 *   timeout@2        run 2's watchdog expires immediately on attempt 1
 *   corrupt@7        run 7's snapshot is bit-flipped before attempt 1
 *   crash@9          the process _Exit()s right after store put 9 is
 *                    durable, before it is acknowledged
 *   tear@9           put 9 persists only half its frame, then the
 *                    process _Exit()s
 *   shortwrite@4     put 4 persists only a prefix of its frame, then
 *                    the write fails (torn frame, process survives)
 *   enospc@4         put 4 fails before writing a byte (disk full)
 *   flaky=1/8:99     seeded pseudo-random throws: attempt 1 of run r
 *                    fails iff hash64(seed=99, r) mod 8 < 1
 *
 * Run indices refer to submission order within the sweep actually
 * executed (store hits are not executed); put ordinals count the
 * store's append attempts since it was opened. Directives are pure
 * functions of (kind, index, attempt): no internal state mutates while
 * firing, so concurrent sweep workers can consult one shared injector.
 *
 * Activation: pass a spec via --fault-inject.
 */

#ifndef SPECFETCH_FAULT_INJECTOR_HH_
#define SPECFETCH_FAULT_INJECTOR_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace specfetch {

/** Failure modes the injector can force. */
enum class FaultKind : uint8_t
{
    Throw,           ///< per-run guard boundary: an exception mid-run
    Timeout,         ///< watchdog wall-clock expiry
    CorruptSnapshot, ///< bit-flip the run's replay snapshot
    Crash,           ///< hard process death after a durable put
    Tear,            ///< crash with a half-written store frame
    ShortWrite,      ///< persist only a prefix of an append, then fail
    Enospc,          ///< fail an append before writing anything
};

const char *toString(FaultKind kind);

/** Exit code of an injected crash/tear (mirrors SIGKILL's 128+9). */
constexpr int kCrashExitCode = 137;

class FaultInjector
{
  public:
    /** One parsed directive: fire @p kind at run @p index. */
    struct Directive
    {
        FaultKind kind = FaultKind::Throw;
        uint64_t index = 0;
        /** Attempts 1..maxAttempt fire; UINT32_MAX means every one. */
        uint32_t maxAttempt = 1;
    };

    /** Fires every attempt. */
    static constexpr uint32_t kEveryAttempt = UINT32_MAX;

    FaultInjector() = default;

    /**
     * Parse @p spec (syntax above). On failure returns false and
     * names the offending directive in @p error.
     */
    static bool parse(const std::string &spec, FaultInjector &out,
                      std::string *error = nullptr);

    /** True when no directive can ever fire. */
    bool empty() const { return directives.empty() && flakyDen == 0; }

    /**
     * Should @p kind fire for run @p index on attempt @p attempt
     * (1-based)? Pure — safe to call from any sweep worker.
     */
    bool fires(FaultKind kind, uint64_t index, uint32_t attempt = 1) const;

    const std::vector<Directive> &list() const { return directives; }

    /**
     * Project this injector onto the single run ordinal @p ordinal:
     * directives aimed at @p ordinal survive with their index rewritten
     * to 0, everything else is dropped, and a would-fire flaky draw
     * becomes an explicit throw@0 directive. Lets a caller that
     * executes runs one at a time (local index always 0, e.g. the
     * sweep service) reuse a spec whose indices name global submission
     * ordinals.
     */
    FaultInjector atOrdinal(uint64_t ordinal) const;

  private:
    std::vector<Directive> directives;
    /** flaky=NUM/DEN:SEED — 0 denominator disables. */
    uint64_t flakyNum = 0;
    uint64_t flakyDen = 0;
    uint64_t flakySeed = 0;
};

} // namespace specfetch

#endif // SPECFETCH_FAULT_INJECTOR_HH_
