#include "workload/executor.hh"

#include <cmath>

#include "util/logging.hh"

namespace specfetch {

Executor::Executor(const Cfg &_cfg, uint64_t run_seed)
    : cfg(_cfg), rng(run_seed ^ 0xc0ffee5eed5ull),
      loopRemaining(_cfg.blocks.size(), 0),
      patternCount(_cfg.blocks.size(), 0),
      visits(_cfg.blocks.size(), 0)
{
    panic_if(cfg.blocks.empty(), "executor needs a program");
    curBlock = cfg.functions[0].entryBlock();
    callStack.reserve(cfg.functions.size());
}

bool
Executor::evalCondBranch(const BasicBlock &block)
{
    const BranchBehavior &behavior = block.behavior;
    switch (behavior.mode) {
      case DirMode::Biased:
        return rng.nextBool(behavior.takenProb);

      case DirMode::Pattern: {
        uint64_t count = patternCount[block.id]++;
        unsigned bit = static_cast<unsigned>(
            count % behavior.patternLen);
        return (behavior.patternBits >> bit) & 1;
      }

      case DirMode::Correlated:
        return (((archHistory >> (behavior.correlationDepth - 1)) & 1) !=
                0) != behavior.correlationInvert;

      case DirMode::LoopBack: {
        uint32_t &remaining = loopRemaining[block.id];
        if (remaining == 0) {
            // Loop entry: fix this activation's trip count.
            double jitter = behavior.tripJitter;
            double factor = 1.0 + (rng.nextDouble() * 2.0 - 1.0) * jitter;
            double trips = std::max(1.0,
                std::round(behavior.tripCount * factor));
            remaining = static_cast<uint32_t>(trips);
        }
        --remaining;
        return remaining > 0;
      }
    }
    return false;
}

bool
Executor::next(DynInst &out)
{
    const BasicBlock *block = &cfg.blocks[curBlock];

    // Skip over empty transitions is unnecessary: validate() rejects
    // empty blocks, so every block emits at least one instruction.
    Addr pc = block->startAddr +
              static_cast<Addr>(instInBlock) * kInstBytes;

    if (instInBlock == 0)
        ++visits[curBlock];
    ++instructions;

    if (instInBlock < block->bodyLen) {
        out = DynInst{pc, InstClass::Plain, false, 0};
        ++instInBlock;
        // Fall-through blocks have no terminator instruction: hop to
        // the next block once the body is done.
        if (instInBlock == block->bodyLen &&
            block->term == TermKind::FallThrough) {
            curBlock = block->id + 1;
            instInBlock = 0;
        }
        return true;
    }

    // Terminator instruction.
    ++controlInsts;
    switch (block->term) {
      case TermKind::CondBranch: {
        ++condBranches;
        bool taken = evalCondBranch(*block);
        archHistory = (archHistory << 1) | (taken ? 1 : 0);
        if (taken)
            ++condTaken;
        Addr target = cfg.blocks[block->target].startAddr;
        out = DynInst{pc, InstClass::CondBranch, taken, target};
        curBlock = taken ? block->target : block->id + 1;
        break;
      }
      case TermKind::Jump: {
        Addr target = cfg.blocks[block->target].startAddr;
        out = DynInst{pc, InstClass::Jump, true, target};
        curBlock = block->target;
        break;
      }
      case TermKind::Call: {
        ++calls;
        const Function &callee = cfg.functions[block->calleeFunc];
        Addr target = cfg.blocks[callee.entryBlock()].startAddr;
        out = DynInst{pc, InstClass::Call, true, target};
        callStack.push_back(block->id + 1);
        curBlock = callee.entryBlock();
        break;
      }
      case TermKind::Return: {
        ++returns;
        panic_if(callStack.empty(),
                 "return with empty call stack in block %u", block->id);
        uint32_t return_block = callStack.back();
        callStack.pop_back();
        Addr target = cfg.blocks[return_block].startAddr;
        out = DynInst{pc, InstClass::Return, true, target};
        curBlock = return_block;
        break;
      }
      case TermKind::IndirectJump: {
        ++indirectJumps;
        const IndirectSuccessors &succ = cfg.indirectOf(*block);
        uint32_t target_block = succ.targets[rng.nextWeighted(succ.weights)];
        Addr target = cfg.blocks[target_block].startAddr;
        out = DynInst{pc, InstClass::IndirectJump, true, target};
        curBlock = target_block;
        break;
      }
      case TermKind::IndirectCall: {
        ++indirectCalls;
        const IndirectSuccessors &succ = cfg.indirectOf(*block);
        const Function &callee =
            cfg.functions[succ.targets[rng.nextWeighted(succ.weights)]];
        Addr target = cfg.blocks[callee.entryBlock()].startAddr;
        out = DynInst{pc, InstClass::IndirectCall, true, target};
        callStack.push_back(block->id + 1);
        curBlock = callee.entryBlock();
        break;
      }
      case TermKind::FallThrough:
        panic("terminator emission reached for fall-through block %u",
              block->id);
    }

    instInBlock = 0;
    return true;
}

uint32_t
Executor::takePlainRun(Addr &pc_out, uint32_t max)
{
    const BasicBlock &block = cfg.blocks[curBlock];
    uint32_t left = block.bodyLen - instInBlock;
    uint32_t n = left < max ? left : max;
    if (n == 0)
        return 0;

    if (instInBlock == 0)
        ++visits[curBlock];
    instructions += n;
    pc_out = block.startAddr + static_cast<Addr>(instInBlock) * kInstBytes;
    instInBlock += n;
    if (instInBlock == block.bodyLen && block.term == TermKind::FallThrough) {
        curBlock = block.id + 1;
        instInBlock = 0;
    }
    return n;
}

double
Executor::branchFraction() const
{
    return ratioOf(controlInsts.value(), instructions.value());
}

} // namespace specfetch
