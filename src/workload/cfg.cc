#include "workload/cfg.hh"

#include <utility>

#include "util/logging.hh"

namespace specfetch {

uint64_t
Cfg::totalInstructions() const
{
    uint64_t n = 0;
    for (const BasicBlock &block : blocks)
        n += block.numInsts();
    return n;
}

uint64_t
Cfg::totalControlInstructions() const
{
    uint64_t n = 0;
    for (const BasicBlock &block : blocks)
        if (block.term != TermKind::FallThrough)
            ++n;
    return n;
}

void
Cfg::setIndirect(uint32_t block, IndirectSuccessors successors)
{
    blocks.at(block).indirect = static_cast<uint32_t>(indirects.size());
    indirects.push_back(std::move(successors));
}

void
Cfg::validate() const
{
    panic_if(functions.empty(), "cfg has no functions");
    panic_if(blocks.empty(), "cfg has no blocks");

    // Function ranges tile the block vector in order.
    uint32_t expected_first = 0;
    for (size_t f = 0; f < functions.size(); ++f) {
        const Function &fn = functions[f];
        panic_if(fn.index != f, "function %zu has index %u", f, fn.index);
        panic_if(fn.firstBlock != expected_first,
                 "function %zu does not start at block %u", f,
                 expected_first);
        panic_if(fn.lastBlock < fn.firstBlock ||
                     fn.lastBlock >= blocks.size(),
                 "function %zu has bad block range", f);
        expected_first = fn.lastBlock + 1;
    }
    panic_if(expected_first != blocks.size(),
             "functions do not cover all blocks");

    for (size_t i = 0; i < blocks.size(); ++i) {
        const BasicBlock &block = blocks[i];
        panic_if(block.id != i, "block %zu has id %u", i, block.id);
        panic_if(block.func >= functions.size(), "block %zu bad func", i);
        const Function &fn = functions[block.func];
        panic_if(i < fn.firstBlock || i > fn.lastBlock,
                 "block %zu outside its function's range", i);
        panic_if(block.numInsts() == 0, "block %zu is empty", i);

        // Fall-through successors must be lexically adjacent and in
        // the same function (Call falls through after the callee
        // returns).
        if (block.canFallThrough()) {
            panic_if(i + 1 >= blocks.size(),
                     "block %zu falls off the program", i);
            panic_if(blocks[i + 1].func != block.func,
                     "block %zu falls through a function boundary", i);
        }

        switch (block.term) {
          case TermKind::FallThrough:
            break;
          case TermKind::CondBranch:
          case TermKind::Jump:
            panic_if(block.target >= blocks.size(),
                     "block %zu branches to bad block", i);
            panic_if(blocks[block.target].func != block.func,
                     "block %zu branches across functions", i);
            break;
          case TermKind::Call:
            panic_if(block.calleeFunc >= functions.size(),
                     "block %zu calls bad function", i);
            panic_if(block.calleeFunc <= block.func,
                     "block %zu call would make the call graph cyclic",
                     i);
            break;
          case TermKind::Return:
            panic_if(block.func == 0,
                     "function 0 must not return (block %zu)", i);
            break;
          case TermKind::IndirectJump:
          case TermKind::IndirectCall: {
            panic_if(block.indirect >= indirects.size() ||
                         indirectOf(block).targets.empty(),
                     "block %zu indirect terminator with no successors", i);
            const IndirectSuccessors &succ = indirectOf(block);
            panic_if(succ.targets.size() != succ.weights.size(),
                     "block %zu indirect weights mismatch", i);
            for (uint32_t t : succ.targets) {
                if (block.term == TermKind::IndirectJump) {
                    panic_if(t >= blocks.size(),
                             "block %zu indirect target out of range", i);
                    panic_if(blocks[t].func != block.func,
                             "block %zu indirect target across functions",
                             i);
                } else {
                    panic_if(t >= functions.size(),
                             "block %zu indirect call to bad function", i);
                    panic_if(t <= block.func,
                             "block %zu indirect call would make the call "
                             "graph cyclic",
                             i);
                }
            }
            break;
          }
        }

        if (block.term == TermKind::CondBranch &&
            block.behavior.mode == DirMode::Pattern) {
            panic_if(block.behavior.patternLen == 0 ||
                         block.behavior.patternLen > 64,
                     "block %zu pattern length out of range", i);
        }
    }

    // Execution must never run off the end of main. The fall-through
    // adjacency check above already guarantees no function's last
    // block falls through, and the per-block check rejects returns in
    // function 0 — so main can only leave via jumps/branches within
    // itself, i.e. it loops forever. Require at least one jump back
    // to main's entry so that the loop is actually reachable.
    bool main_loops = false;
    for (uint32_t b = functions[0].firstBlock;
         b <= functions[0].lastBlock; ++b) {
        if ((blocks[b].term == TermKind::Jump ||
             blocks[b].term == TermKind::CondBranch) &&
            blocks[b].target == functions[0].entryBlock()) {
            main_loops = true;
        }
        if (blocks[b].term == TermKind::IndirectJump) {
            for (uint32_t t : indirectOf(blocks[b]).targets)
                main_loops |= t == functions[0].entryBlock();
        }
    }
    panic_if(!main_loops,
             "function 0 must contain a jump back to its own entry");
}

} // namespace specfetch
