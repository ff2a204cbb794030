/**
 * @file
 * Per-run execution guards for the guarded sweep: a cooperative RAII
 * watchdog (wall-clock deadline + hard instruction ceiling) that the
 * fetch engine polls on a coarse cadence, the typed errors the guard
 * boundary distinguishes, and the retry/backoff arithmetic.
 *
 * The watchdog is cooperative by design: runs execute on sweep worker
 * threads, and POSIX offers no safe way to preempt a thread mid-run,
 * so the engine polls Watchdog::poll() every ~32K retired
 * instructions (a steady_clock read per poll — noise against the
 * hundreds of microseconds the instructions themselves cost). A run
 * that blows its deadline or its instruction ceiling unwinds with
 * RunTimeout to runSweep's per-run guard (SweepOptions::guard), which
 * retries or quarantines it. When no watchdog is armed the engine's fast path
 * is untouched (one branch per outer loop iteration).
 */

#ifndef SPECFETCH_FAULT_GUARD_HH_
#define SPECFETCH_FAULT_GUARD_HH_

#include <cstdint>
#include <stdexcept>
#include <string>

namespace specfetch {

/** Raised by Watchdog::poll() when a run exceeds its budget. */
class RunTimeout : public std::runtime_error
{
  public:
    explicit RunTimeout(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** Raised by the guard itself when the injector forces a failure. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * RAII watchdog, armed for the calling thread. At most one per thread
 * may be alive at a time (nesting is a programming error and panics).
 *
 * Both limits are optional: 0 wall-clock seconds means no deadline,
 * 0 instructions means no ceiling. An armed watchdog with neither
 * limit never fires but still costs the poll.
 */
class Watchdog
{
  public:
    /**
     * @param wallSeconds         Wall-clock budget (0 = unlimited).
     * @param instructionCeiling  Hard cap on retired instructions the
     *                            poller may observe (0 = unlimited);
     *                            a tripwire for runaway runs whose own
     *                            budget accounting is broken.
     * @param expireImmediately   Fault-injection hook: the deadline is
     *                            already in the past, so the first
     *                            poll throws (deterministic timeouts
     *                            in tests without sleeping).
     */
    Watchdog(double wallSeconds, uint64_t instructionCeiling,
             bool expireImmediately = false);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** True when the calling thread has an armed watchdog. */
    static bool armed();

    /**
     * Check the calling thread's limits; throws RunTimeout past
     * either. A no-op when no watchdog is armed.
     */
    static void poll(uint64_t instructionsRetired);
};

/** Poll cadence the fetch engine uses, in retired instructions. */
constexpr uint64_t kWatchdogPollInterval = 32'768;

/**
 * Exponential-backoff delay before retry @p attempt (2-based: the
 * delay preceding the second attempt is the base). Capped at 30 s so
 * a misconfigured base cannot stall a sweep worker indefinitely.
 */
double backoffSeconds(unsigned attempt, double baseSeconds);

/** Sleep the calling thread (fractional seconds; 0 returns at once). */
void sleepSeconds(double seconds);

} // namespace specfetch

#endif // SPECFETCH_FAULT_GUARD_HH_
