#include "workload/layout.hh"

namespace specfetch {

ProgramImage
layoutProgram(Cfg &cfg)
{
    // Pass 1: place blocks back to back in id order.
    Addr cursor = kTextBase;
    for (BasicBlock &block : cfg.blocks) {
        block.startAddr = cursor;
        cursor += static_cast<Addr>(block.numInsts()) * kInstBytes;
    }

    ProgramImage image(kTextBase, (cursor - kTextBase) / kInstBytes);

    // Pass 2: emit instructions now that every target address exists.
    for (const BasicBlock &block : cfg.blocks) {
        Addr pc = block.startAddr;
        for (uint32_t i = 0; i < block.bodyLen; ++i) {
            image.set(pc, StaticInst{InstClass::Plain, 0});
            pc += kInstBytes;
        }
        if (block.term == TermKind::FallThrough)
            continue;

        StaticInst inst;
        switch (block.term) {
          case TermKind::CondBranch:
            inst.cls = InstClass::CondBranch;
            inst.target = cfg.blocks[block.target].startAddr;
            break;
          case TermKind::Jump:
            inst.cls = InstClass::Jump;
            inst.target = cfg.blocks[block.target].startAddr;
            break;
          case TermKind::Call: {
            inst.cls = InstClass::Call;
            const Function &callee = cfg.functions[block.calleeFunc];
            inst.target = cfg.blocks[callee.entryBlock()].startAddr;
            break;
          }
          case TermKind::Return:
            inst.cls = InstClass::Return;
            break;
          case TermKind::IndirectJump:
            inst.cls = InstClass::IndirectJump;
            break;
          case TermKind::IndirectCall:
            inst.cls = InstClass::IndirectCall;
            break;
          case TermKind::FallThrough:
            break;
        }
        image.set(pc, inst);
    }

    image.finalizeRuns();
    return image;
}

} // namespace specfetch
