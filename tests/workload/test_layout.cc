/** @file Unit tests for workload/layout.hh. */

#include "workload/layout.hh"

#include <gtest/gtest.h>

#include "workload/cfg_builder.hh"

namespace specfetch {
namespace {

Cfg
builtCfg(uint64_t seed = 3)
{
    WorkloadProfile profile;
    profile.structureSeed = seed;
    profile.numFunctions = 10;
    profile.meanFuncBlocks = 16;
    profile.meanBlockLen = 4.0;
    return CfgBuilder(profile).build();
}

TEST(Layout, BlocksAreContiguous)
{
    Cfg cfg = builtCfg();
    ProgramImage image = layoutProgram(cfg);
    Addr expected = kTextBase;
    for (const BasicBlock &block : cfg.blocks) {
        EXPECT_EQ(block.startAddr, expected);
        expected += block.numInsts() * kInstBytes;
    }
    EXPECT_EQ(image.end(), expected);
}

TEST(Layout, ImageSizeMatchesCfg)
{
    Cfg cfg = builtCfg();
    ProgramImage image = layoutProgram(cfg);
    EXPECT_EQ(image.size(), cfg.totalInstructions());
    EXPECT_EQ(image.controlCount(), cfg.totalControlInstructions());
}

TEST(Layout, TerminatorsEncodeTargets)
{
    Cfg cfg = builtCfg();
    ProgramImage image = layoutProgram(cfg);
    for (const BasicBlock &block : cfg.blocks) {
        if (block.term == TermKind::FallThrough)
            continue;
        Addr term_pc = block.startAddr + block.bodyLen * kInstBytes;
        StaticInst inst = image.at(term_pc);
        switch (block.term) {
          case TermKind::CondBranch:
            ASSERT_EQ(inst.cls, InstClass::CondBranch);
            EXPECT_EQ(inst.target, cfg.blocks[block.target].startAddr);
            break;
          case TermKind::Jump:
            ASSERT_EQ(inst.cls, InstClass::Jump);
            EXPECT_EQ(inst.target, cfg.blocks[block.target].startAddr);
            break;
          case TermKind::Call: {
            ASSERT_EQ(inst.cls, InstClass::Call);
            const Function &callee = cfg.functions[block.calleeFunc];
            EXPECT_EQ(inst.target,
                      cfg.blocks[callee.entryBlock()].startAddr);
            break;
          }
          case TermKind::Return:
            EXPECT_EQ(inst.cls, InstClass::Return);
            break;
          case TermKind::IndirectJump:
            EXPECT_EQ(inst.cls, InstClass::IndirectJump);
            break;
          case TermKind::IndirectCall:
            EXPECT_EQ(inst.cls, InstClass::IndirectCall);
            break;
          case TermKind::FallThrough:
            break;
        }
    }
}

TEST(Layout, BodyInstructionsArePlain)
{
    Cfg cfg = builtCfg();
    ProgramImage image = layoutProgram(cfg);
    const BasicBlock &block = cfg.blocks[0];
    for (uint32_t i = 0; i < block.bodyLen; ++i) {
        EXPECT_EQ(image.at(block.startAddr + i * kInstBytes).cls,
                  InstClass::Plain);
    }
}

} // namespace
} // namespace specfetch
