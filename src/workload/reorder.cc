#include "workload/reorder.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"
#include "workload/executor.hh"
#include "workload/layout.hh"

namespace specfetch {

BlockProfile
profileWorkload(const Workload &workload, uint64_t seed,
                uint64_t instructions)
{
    Executor executor(workload.cfg, seed);
    DynInst inst;
    for (uint64_t i = 0; i < instructions; ++i)
        executor.next(inst);
    BlockProfile profile;
    profile.visits = executor.blockVisits();
    profile.instructions = instructions;
    return profile;
}

namespace {

/** One unbreakable fall-through chain. */
struct Chain
{
    uint32_t func;
    std::vector<uint32_t> blocks;    ///< original ids, in order
    uint64_t heat = 0;               ///< hottest block's visit count
    uint32_t originalIndex = 0;      ///< tie-break: stable order
};

} // namespace

Cfg
reorderBlocks(const Cfg &cfg, const std::vector<uint64_t> &visits)
{
    panic_if(visits.size() != cfg.blocks.size(),
             "profile covers %zu blocks, cfg has %zu", visits.size(),
             cfg.blocks.size());

    // Pass 1: carve each function into fall-through chains. A chain
    // extends while the current block can fall through (its lexical
    // successor is a real successor and must stay adjacent).
    std::vector<Chain> chains;
    for (const Function &fn : cfg.functions) {
        uint32_t b = fn.firstBlock;
        while (b <= fn.lastBlock) {
            Chain chain;
            chain.func = fn.index;
            chain.originalIndex = static_cast<uint32_t>(chains.size());
            while (true) {
                chain.blocks.push_back(b);
                chain.heat = std::max(chain.heat, visits[b]);
                if (!cfg.blocks[b].canFallThrough())
                    break;
                panic_if(b == fn.lastBlock,
                         "function %u falls off its last block",
                         fn.index);
                ++b;
            }
            ++b;
            chains.push_back(std::move(chain));
        }
    }

    // Pass 2: sort chains per function, hottest first. The entry
    // chain must stay first: callers land on the function's first
    // block. Stable tie-break keeps cold chains in original order.
    std::stable_sort(chains.begin(), chains.end(),
                     [&](const Chain &a, const Chain &b) {
                         if (a.func != b.func)
                             return a.func < b.func;
                         bool a_entry = a.blocks.front() ==
                             cfg.functions[a.func].firstBlock;
                         bool b_entry = b.blocks.front() ==
                             cfg.functions[b.func].firstBlock;
                         if (a_entry != b_entry)
                             return a_entry;
                         if (a.heat != b.heat)
                             return a.heat > b.heat;
                         return a.originalIndex < b.originalIndex;
                     });

    // Pass 3: emit the permuted graph with remapped ids.
    std::vector<uint32_t> new_id(cfg.blocks.size(), kNoBlock);
    Cfg out;
    out.blocks.reserve(cfg.blocks.size());
    out.functions = cfg.functions;
    out.indirects = cfg.indirects;

    uint32_t cursor = 0;
    size_t chain_index = 0;
    for (Function &fn : out.functions) {
        fn.firstBlock = cursor;
        while (chain_index < chains.size() &&
               chains[chain_index].func == fn.index) {
            for (uint32_t old_id : chains[chain_index].blocks) {
                new_id[old_id] = cursor;
                BasicBlock block = cfg.blocks[old_id];
                block.id = cursor;
                block.startAddr = 0;    // stale; relaid out by caller
                out.blocks.push_back(std::move(block));
                ++cursor;
            }
            ++chain_index;
        }
        fn.lastBlock = cursor - 1;
    }
    panic_if(cursor != cfg.blocks.size(), "reorder dropped blocks");

    // Pass 4: remap all *block* references. Indirect-call targets are
    // function indices, and calleeFunc likewise — the function
    // numbering is untouched by a block permutation, so they must NOT
    // go through the block-id map.
    for (BasicBlock &block : out.blocks) {
        if (block.term == TermKind::CondBranch ||
            block.term == TermKind::Jump) {
            block.target = new_id[block.target];
        }
        if (block.term == TermKind::IndirectJump) {
            for (uint32_t &target : out.indirects[block.indirect].targets)
                target = new_id[target];
        }
    }

    out.validate();
    return out;
}

Workload
reorderWorkload(const Workload &workload, uint64_t profile_seed,
                uint64_t profile_budget)
{
    BlockProfile profile =
        profileWorkload(workload, profile_seed, profile_budget);
    Cfg reordered = reorderBlocks(workload.cfg, profile.visits);
    ProgramImage image = layoutProgram(reordered);
    return Workload{workload.profile, std::move(reordered),
                    std::move(image)};
}

} // namespace specfetch
