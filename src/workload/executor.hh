/**
 * @file
 * The architectural executor: walks the CFG and produces the dynamic
 * correct-path instruction stream, one DynInst at a time.
 *
 * This plays the role ATOM-instrumented execution plays in the paper:
 * it defines ground truth — where the program really goes — against
 * which the fetch engine speculates. It is a pull-based generator so
 * multi-billion-instruction runs need no trace storage, and it is
 * deterministic given (program, run seed), so every policy sees the
 * identical correct path.
 */

#ifndef SPECFETCH_WORKLOAD_EXECUTOR_HH_
#define SPECFETCH_WORKLOAD_EXECUTOR_HH_

#include <vector>

#include "isa/instruction.hh"
#include "isa/program_image.hh"
#include "stats/stats.hh"
#include "util/random.hh"
#include "workload/cfg.hh"

namespace specfetch {

/**
 * A correct-path stream as TraceSnapshot::record() reads it: the
 * executor, a snapshot cursor, or a scripted test input. The engine
 * never runs a source through this base; FetchEngine::runWith takes
 * the final Executor or SnapshotReplaySource directly.
 */
class InstructionSource
{
  public:
    virtual ~InstructionSource() = default;

    /**
     * Produce the next correct-path instruction.
     * @return false when the source is exhausted (the executor never
     *         is; trace replay and test scripts are).
     */
    virtual bool next(DynInst &out) = 0;

    /**
     * Bulk next() for plains: consume up to max (> 0) of the plains
     * that come next and return the count, the first one's PC in
     * pc_out (the rest follow at kInstBytes stride). 0 means no run
     * is ready — always, in this default — and next() yields the
     * following instruction. Interleaves freely with next().
     */
    virtual uint32_t takePlainRun(Addr & /*pc_out*/, uint32_t /*max*/)
    {
        return 0;
    }
};

/**
 * CFG interpreter. Final so the engine's typed run loop
 * (FetchEngine::runWith) can statically bind next() and
 * takePlainRun().
 */
class Executor final : public InstructionSource
{
  public:
    /**
     * @param cfg      Validated, laid-out program graph.
     * @param run_seed Seed for dynamic choices (biased branches,
     *                 trip-count jitter, switch arms).
     */
    Executor(const Cfg &cfg, uint64_t run_seed);

    /** Always returns true: the synthetic program runs forever. */
    bool next(DynInst &out) override;

    /**
     * Hand out the rest of the current block's body (at most @p max
     * plains). Counts exactly as the same number of next() calls
     * would: a block's entry visit, the emitted instructions, and the
     * hop past a fall-through block's end — so one call never spans
     * two blocks. Returns 0 when the block's terminator is next.
     */
    uint32_t takePlainRun(Addr &pc_out, uint32_t max) override;

    /** @name Dynamic-mix statistics @{ */
    Counter instructions;       ///< everything emitted
    Counter controlInsts;       ///< all control-flow instructions
    Counter condBranches;       ///< conditional branches
    Counter condTaken;          ///< conditionals that were taken
    Counter calls;
    Counter returns;
    Counter indirectJumps;
    Counter indirectCalls;
    /** @} */

    /** Fraction of emitted instructions that were control flow. */
    double branchFraction() const;

    /** Dynamic entry count per basic block (profile-guided layout,
     *  paper §6 "software techniques"). Indexed by block id. */
    const std::vector<uint64_t> &blockVisits() const { return visits; }

  private:
    /** Evaluate the direction of the conditional ending @p block. */
    bool evalCondBranch(const BasicBlock &block);

    const Cfg &cfg;
    Rng rng;

    uint32_t curBlock = 0;
    uint32_t instInBlock = 0;
    /** Architectural outcome history feeding Correlated branches. */
    uint64_t archHistory = 0;
    std::vector<uint32_t> callStack;        ///< return block ids
    std::vector<uint32_t> loopRemaining;    ///< 0 = loop not active
    std::vector<uint64_t> patternCount;     ///< per-branch occurrence
    std::vector<uint64_t> visits;           ///< block entry counts
};

} // namespace specfetch

#endif // SPECFETCH_WORKLOAD_EXECUTOR_HH_
