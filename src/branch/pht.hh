/**
 * @file
 * Pattern history table for conditional-branch direction prediction.
 *
 * The paper's baseline models McFarling's gshare: a 512-entry table of
 * 2-bit saturating counters indexed by the XOR of the global history
 * register and the branch address. Crucially (paper §4.2), the PHT is
 * *non-speculative*: the global history register and counters are
 * updated only when a branch resolves. With deep speculation this
 * means predictions are made with stale history — the source of the
 * PHT-ISPI growth from depth 1 to depth 4 in Table 3.
 */

#ifndef SPECFETCH_BRANCH_PHT_HH_
#define SPECFETCH_BRANCH_PHT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "isa/types.hh"
#include "stats/stats.hh"
#include "util/bit_ops.hh"
#include "util/sat_counter.hh"

namespace specfetch {

/** Indexing scheme for the PHT. */
enum class PhtIndexing : uint8_t
{
    Gshare,     ///< (history XOR pc) — McFarling 93; baseline
    GlobalOnly, ///< history only — degenerate two-level (Pan et al.)
    PcOnly,     ///< pc only — bimodal (Smith 81)
    Local,      ///< two-level with per-branch history (Yeh & Patt 92,
                ///< §2.1 related work): a PC-indexed table of local
                ///< histories indexes the shared counter table
    Combining,  ///< McFarling 93 (§2.1): gshare + bimodal tables with
                ///< a PC-indexed chooser that learns, per branch,
                ///< which component to trust
};

/** Display name ("gshare", "global", "pc", "local", "combining"). */
std::string toString(PhtIndexing indexing);

/** Parse a scheme name (case-insensitive, surrounding spaces ignored).
 *  False on unknown names. */
bool parsePhtIndexing(const std::string &text, PhtIndexing &out);

/**
 * Global-history pattern table with resolve-time updates.
 */
class Pht
{
  public:
    /**
     * @param entries     Table size (power of two); baseline 512.
     * @param counter_bits Width of each saturating counter; baseline 2.
     * @param indexing    Index construction; baseline Gshare.
     */
    /**
     * @param entries        Counter-table size (power of two).
     * @param counter_bits   Saturating-counter width; baseline 2.
     * @param indexing       Index construction; baseline Gshare.
     * @param local_entries  Per-branch history table size for the
     *                       Local scheme (power of two).
     */
    explicit Pht(unsigned entries = 512, unsigned counter_bits = 2,
                 PhtIndexing indexing = PhtIndexing::Gshare,
                 unsigned local_entries = 1024);

    /**
     * Predict direction for the conditional branch at @p pc using the
     * *current* (architectural, resolve-updated) history. Inline: one
     * call per conditional branch on both the correct and the wrong
     * path — the hottest predictor entry point.
     */
    bool
    predict(Addr pc) const
    {
        ++predictions;
        if (indexing == PhtIndexing::Combining) {
            bool use_gshare = chooser[pcIndex(pc)].predictTaken();
            return use_gshare ? counters[gshareIndex(pc)].predictTaken()
                              : bimodal[pcIndex(pc)].predictTaken();
        }
        return counters[indexFor(pc)].predictTaken();
    }

    /**
     * Resolve-time training: update the counter the prediction was
     * read from and then shift the outcome into the history register.
     * Inline: one call per resolved conditional branch, paired with
     * predict() in the simulator's per-branch hot path.
     * @param pc     Branch address.
     * @param taken  Actual direction.
     */
    void
    update(Addr pc, bool taken)
    {
        ++updates;
        // Train the counter at the index formed from the *architectural*
        // history (all older branches resolved). Under deep speculation
        // a fetch-time predict() for this branch may have read a
        // different, stale index — that mismatch is precisely the PHT
        // degradation the paper attributes to speculative execution
        // (Table 3, B1 vs B4).
        if (indexing == PhtIndexing::Combining) {
            // Both components train on every branch; the chooser trains
            // only when they disagree, toward whichever was right
            // (McFarling 93).
            bool g = counters[gshareIndex(pc)].predictTaken();
            bool b = bimodal[pcIndex(pc)].predictTaken();
            if (g != b)
                chooser[pcIndex(pc)].update(g == taken);
            counters[gshareIndex(pc)].update(taken);
            bimodal[pcIndex(pc)].update(taken);
        } else {
            counters[indexFor(pc)].update(taken);
        }
        ghr = ((ghr << 1) | (taken ? 1 : 0)) & mask(historyBits);
        if (indexing == PhtIndexing::Local) {
            uint64_t &history =
                localHistories[(pc / kInstBytes) & mask(localIndexBits)];
            history = ((history << 1) | (taken ? 1 : 0)) &
                      mask(historyBits);
        }
    }

    /** History register value (low @ref historyBits bits). */
    uint64_t history() const { return ghr; }
    unsigned historyWidth() const { return historyBits; }
    unsigned numEntries() const { return entries; }

    /** @name Statistics @{ */
    mutable Counter predictions;
    Counter updates;
    /** @} */

  private:
    unsigned
    indexFor(Addr pc) const
    {
        uint64_t pc_bits = pc / kInstBytes;
        uint64_t index = 0;
        switch (indexing) {
          case PhtIndexing::Gshare:
            index = ghr ^ pc_bits;
            break;
          case PhtIndexing::GlobalOnly:
            index = ghr;
            break;
          case PhtIndexing::PcOnly:
            index = pc_bits;
            break;
          case PhtIndexing::Local:
            index = localHistories[pc_bits & mask(localIndexBits)];
            break;
          case PhtIndexing::Combining:
            index = ghr ^ pc_bits;    // the gshare component's index
            break;
        }
        return static_cast<unsigned>(index & mask(historyBits));
    }

    unsigned entries = 0;
    unsigned historyBits = 0;
    PhtIndexing indexing;
    std::vector<SatCounter> counters;
    uint64_t ghr = 0;
    /** Per-branch histories (Local scheme only; resolve-updated like
     *  the global register, so deep speculation reads stale local
     *  history too). */
    std::vector<uint64_t> localHistories;
    unsigned localIndexBits = 0;
    /** Combining scheme: second (bimodal) table + chooser. */
    std::vector<SatCounter> bimodal;
    std::vector<SatCounter> chooser;

    unsigned
    gshareIndex(Addr pc) const
    {
        return static_cast<unsigned>((ghr ^ (pc / kInstBytes)) &
                                     mask(historyBits));
    }

    unsigned
    pcIndex(Addr pc) const
    {
        return static_cast<unsigned>((pc / kInstBytes) & mask(historyBits));
    }
};

} // namespace specfetch

#endif // SPECFETCH_BRANCH_PHT_HH_
