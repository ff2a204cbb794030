/**
 * @file
 * Control-flow-graph model for synthetic programs.
 *
 * The paper traces SPEC92 and C++ binaries with ATOM on an Alpha; we
 * have neither the binaries nor the hardware, so we synthesize
 * programs instead (DESIGN.md §1). A program is a set of functions,
 * each a list of basic blocks laid out contiguously in layout order.
 * Every block carries a body of plain instructions and a terminator;
 * conditional terminators carry a *behavior* describing how their
 * dynamic direction is generated (loop trip counts, static bias, or a
 * periodic pattern that a global-history predictor can learn).
 *
 * Structural invariants (checked by Cfg::validate):
 *  - blocks of a function are contiguous and in layout order;
 *  - a block whose control can fall through (FallThrough, CondBranch
 *    not-taken, Call return) is immediately followed by its
 *    fall-through successor;
 *  - the call graph is acyclic (a function only calls higher-indexed
 *    functions), so execution always terminates back in function 0,
 *    whose final block jumps to its entry — the program runs forever
 *    and is cut off by the instruction budget.
 */

#ifndef SPECFETCH_WORKLOAD_CFG_HH_
#define SPECFETCH_WORKLOAD_CFG_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "isa/types.hh"

namespace specfetch {

/** Sentinel ids. */
constexpr uint32_t kNoBlock = ~uint32_t{0};
constexpr uint32_t kNoFunc = ~uint32_t{0};
constexpr uint32_t kNoIndirect = ~uint32_t{0};

/** Kinds of block terminators. */
enum class TermKind : uint8_t
{
    FallThrough,  ///< no control instruction; flows into the next block
    CondBranch,   ///< conditional branch: taken -> target, else next
    Jump,         ///< unconditional direct jump to target
    Call,         ///< direct call; returns to the next block
    Return,       ///< return to the caller
    IndirectJump, ///< computed jump among its IndirectSuccessors
    IndirectCall, ///< virtual-dispatch call: callee chosen among its
                  ///< IndirectSuccessors (function indices); returns
                  ///< to the next block
};

/** How a conditional branch's dynamic direction is produced. */
enum class DirMode : uint8_t
{
    LoopBack,   ///< taken while iterations remain (trip count per entry)
    Biased,     ///< independent Bernoulli with fixed taken probability
    Pattern,    ///< fixed periodic pattern (per-branch local history)
    Correlated, ///< function of recent global branch outcomes — the
                ///< behavior gshare learns through its history register
                ///< and the one that suffers when speculation makes
                ///< that history stale (paper Table 3, B1 vs B4)
};

/** Direction-generation parameters for one conditional branch. Members
 *  are ordered by size, so the struct packs into 40 bytes. */
struct BranchBehavior
{
    /** Biased: probability the branch is taken. */
    double takenProb = 0.5;
    /** LoopBack: relative jitter applied to tripCount per entry. */
    double tripJitter = 0.0;
    /** Pattern: the bits of the period (bit k = direction of occurrence
     *  k mod patternLen). */
    uint64_t patternBits = 0;
    /** LoopBack: mean iterations per loop entry. */
    uint32_t tripCount = 1;
    /** Pattern: period length (1..64). */
    uint16_t patternLen = 1;
    DirMode mode = DirMode::Biased;
    /** Correlated: taken = outcome of the conditional branch executed
     *  correlationDepth conditionals ago, possibly inverted. */
    uint8_t correlationDepth = 1;
    bool correlationInvert = false;
};
static_assert(sizeof(BranchBehavior) <= 40, "behavior members by size");

/** One basic block. */
struct BasicBlock
{
    uint32_t id = kNoBlock;
    uint32_t func = kNoFunc;
    /** Plain instructions preceding the terminator. */
    uint32_t bodyLen = 0;
    TermKind term = TermKind::FallThrough;
    /** Taken successor (CondBranch/Jump): block id. */
    uint32_t target = kNoBlock;
    /** Callee function index (Call). */
    uint32_t calleeFunc = kNoFunc;
    /** IndirectJump/IndirectCall: index of the successor list in
     *  Cfg::indirects. */
    uint32_t indirect = kNoIndirect;
    /** Direction behavior (CondBranch). */
    BranchBehavior behavior;
    /** Assigned by the layout pass. */
    Addr startAddr = 0;

    /** Total instructions, including the terminator if any. */
    uint32_t
    numInsts() const
    {
        return bodyLen + (term == TermKind::FallThrough ? 0 : 1);
    }

    /** True if control can flow into the lexically next block. */
    bool
    canFallThrough() const
    {
        return term == TermKind::FallThrough ||
               term == TermKind::CondBranch || term == TermKind::Call ||
               term == TermKind::IndirectCall;
    }
};
static_assert(sizeof(BasicBlock) <= 80,
              "a block holds its indirect successors by index");

/**
 * The successors of one indirect terminator with their selection
 * weights: block ids (IndirectJump) or function indices (IndirectCall).
 */
struct IndirectSuccessors
{
    std::vector<uint32_t> targets;
    std::vector<double> weights;
};

/** One function: a contiguous block range [firstBlock, lastBlock]. */
struct Function
{
    uint32_t index = kNoFunc;
    uint32_t firstBlock = kNoBlock;
    uint32_t lastBlock = kNoBlock;
    std::string name;

    uint32_t entryBlock() const { return firstBlock; }
    uint32_t numBlocks() const { return lastBlock - firstBlock + 1; }
};

/**
 * The whole program graph.
 */
class Cfg
{
  public:
    std::vector<BasicBlock> blocks;
    std::vector<Function> functions;
    /** The indirect terminators' successor lists, indexed by
     *  BasicBlock::indirect. Few blocks have one (955 of the 13
     *  profiles' 74,556), so a block holds an index, not the lists. */
    std::vector<IndirectSuccessors> indirects;

    /** Make @p block's indirect terminator choose among
     *  @p successors. */
    void setIndirect(uint32_t block, IndirectSuccessors successors);

    /** The successor list of @p block's indirect terminator. */
    const IndirectSuccessors &
    indirectOf(const BasicBlock &block) const
    {
        return indirects[block.indirect];
    }

    /** Static instruction count over all blocks. */
    uint64_t totalInstructions() const;

    /** Static count of control-flow (terminator) instructions. */
    uint64_t totalControlInstructions() const;

    /**
     * Check every structural invariant; panics with a description of
     * the first violation (generator bugs must not produce silently
     * broken workloads).
     */
    void validate() const;
};

} // namespace specfetch

#endif // SPECFETCH_WORKLOAD_CFG_HH_
