#include "workload/cfg_builder.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace specfetch {

CfgBuilder::CfgBuilder(const WorkloadProfile &_profile)
    : profile(_profile), rng(_profile.structureSeed * 0x9e3779b97f4a7c15ull + 1)
{
    fatal_if(profile.numFunctions == 0, "profile needs at least a main");
    fatal_if(profile.meanBlockLen < 1.0, "meanBlockLen must be >= 1");
    fatal_if(profile.callLayers == 0, "callLayers must be positive");

    // Partition functions into call layers: main alone in layer 0,
    // then layers growing linearly in size (a call pyramid). Function
    // indices stay ascending across layers so the call graph remains
    // acyclic by construction.
    uint32_t layers = profile.callLayers;
    uint32_t rest = profile.numFunctions > 0 ? profile.numFunctions - 1 : 0;
    if (layers > rest + 1)
        layers = rest + 1;

    layerStart = {0, 1};
    layerOf.assign(profile.numFunctions, 0);
    if (layers > 1 && rest > 0) {
        // Weights 1, 2, ..., layers-1 over the non-main functions.
        uint32_t weight_sum = (layers - 1) * layers / 2;
        uint32_t assigned = 0;
        for (uint32_t layer = 1; layer < layers; ++layer) {
            uint32_t share = layer == layers - 1
                ? rest - assigned
                : std::max<uint32_t>(1, rest * layer / weight_sum);
            if (assigned + share > rest)
                share = rest - assigned;
            assigned += share;
            layerStart.push_back(1 + assigned);
        }
        for (uint32_t f = 1; f < profile.numFunctions; ++f) {
            uint32_t layer = 1;
            while (layer + 1 < layerStart.size() &&
                   f >= layerStart[layer + 1]) {
                ++layer;
            }
            layerOf[f] = layer;
        }
    }
}

uint32_t
CfgBuilder::appendBlock(uint32_t func)
{
    BasicBlock block;
    block.id = static_cast<uint32_t>(cfg.blocks.size());
    block.func = func;
    block.bodyLen = sampleBodyLen();
    block.term = TermKind::FallThrough;
    cfg.blocks.push_back(std::move(block));
    return cfg.blocks.back().id;
}

uint32_t
CfgBuilder::appendGlueBlock(uint32_t func)
{
    // Joins, loop exits, and call continuations are tiny in compiled
    // code; keeping them at one instruction preserves the profile's
    // branch density.
    uint32_t id = appendBlock(func);
    cfg.blocks[id].bodyLen = 1;
    return id;
}

uint32_t
CfgBuilder::sampleBodyLen()
{
    double scaled = profile.meanBlockLen * profile.footprintScale;
    if (scaled < 1.0)
        scaled = 1.0;
    uint32_t len = static_cast<uint32_t>(rng.nextLength(scaled));
    return std::max<uint32_t>(1, len);
}

BranchBehavior
CfgBuilder::sampleIfBehavior()
{
    BranchBehavior behavior;
    double roll = rng.nextDouble();
    if (roll < profile.correlatedFraction) {
        behavior.mode = DirMode::Correlated;
        behavior.correlationDepth = static_cast<uint8_t>(
            rng.nextRange(1, std::max<int64_t>(1,
                profile.maxCorrelationDepth)));
        behavior.correlationInvert = rng.nextBool(0.5);
    } else if (roll < profile.correlatedFraction + profile.patternFraction &&
               profile.maxPatternLen >= 2) {
        behavior.mode = DirMode::Pattern;
        behavior.patternLen = static_cast<uint16_t>(
            rng.nextRange(2, profile.maxPatternLen));
        // Avoid the degenerate all-same patterns: those are just
        // strongly biased branches.
        uint64_t all = (behavior.patternLen >= 64)
            ? ~uint64_t{0}
            : ((uint64_t{1} << behavior.patternLen) - 1);
        do {
            behavior.patternBits = rng.next64() & all;
        } while (behavior.patternBits == 0 || behavior.patternBits == all);
    } else {
        behavior.mode = DirMode::Biased;
        behavior.takenProb = sampleBias();
    }
    return behavior;
}

double
CfgBuilder::sampleBias()
{
    // U-shaped bias mixture (see WorkloadProfile): "taken" here is the
    // probability of the branch being taken, i.e. of *skipping* a
    // single-arm if's body.
    double roll = rng.nextDouble();
    if (roll < profile.coldArmFraction) {
        // Arm almost never runs: strongly taken.
        return 0.85 + 0.13 * rng.nextDouble();
    }
    if (roll < profile.coldArmFraction + profile.unpredictableFraction)
        return 0.30 + 0.40 * rng.nextDouble();
    // Hot arm: almost never skipped.
    return 0.02 + 0.13 * rng.nextDouble();
}

BranchBehavior
CfgBuilder::sampleLoopBehavior()
{
    BranchBehavior behavior;
    behavior.mode = DirMode::LoopBack;
    uint32_t mean = std::max<uint32_t>(1, profile.meanTripCount);
    behavior.tripCount = static_cast<uint32_t>(
        rng.nextRange(std::max<int64_t>(1, mean / 2),
                      static_cast<int64_t>(mean) * 2));
    behavior.tripJitter = profile.tripJitter;
    return behavior;
}

uint32_t
CfgBuilder::pickCallee(uint32_t func)
{
    // Only the next layer down is callable (leaves call nobody), so
    // the call tree per main iteration is a bounded pyramid rather
    // than an exponentially exploding DAG. Popularity within the
    // layer is Zipf: a hot head, a long cold tail.
    // layerStart = {0, 1, b2, ..., numFunctions-ish}; layer k spans
    // [layerStart[k], layerStart[k+1]).
    uint32_t layer = layerOf[func];
    if (layer + 2 >= layerStart.size())
        return kNoFunc;    // last layer: leaves
    uint32_t first = layerStart[layer + 1];
    uint32_t end = std::min<uint32_t>(layerStart[layer + 2],
                                      profile.numFunctions);
    if (first >= end)
        return kNoFunc;
    size_t rank = rng.nextZipf(end - first, profile.calleeZipf);
    return first + static_cast<uint32_t>(rank);
}

void
CfgBuilder::emitStraight(uint32_t func)
{
    appendBlock(func);
}

void
CfgBuilder::emitIf(uint32_t func, uint32_t budget, unsigned depth,
                   bool in_loop)
{
    uint32_t header = appendBlock(func);
    cfg.blocks[header].term = TermKind::CondBranch;
    cfg.blocks[header].behavior = sampleIfBehavior();

    bool has_else = rng.nextBool(0.45);
    uint32_t arm_budget = std::max<uint32_t>(1, budget / 3);

    if (has_else) {
        // header(taken -> else) | then... jump join | else... | join
        genBody(func, arm_budget, depth, in_loop);
        uint32_t then_last = static_cast<uint32_t>(cfg.blocks.size()) - 1;
        cfg.blocks[then_last].term = TermKind::Jump;

        uint32_t else_first = static_cast<uint32_t>(cfg.blocks.size());
        genBody(func, arm_budget, depth, in_loop);

        uint32_t join = appendGlueBlock(func);
        cfg.blocks[header].target = else_first;
        cfg.blocks[then_last].target = join;
    } else {
        // header(taken -> join, skipping the arm) | arm... | join
        genBody(func, arm_budget, depth, in_loop);
        uint32_t join = appendGlueBlock(func);
        cfg.blocks[header].target = join;
    }
}

void
CfgBuilder::emitLoop(uint32_t func, uint32_t budget, unsigned depth)
{
    uint32_t body_first = static_cast<uint32_t>(cfg.blocks.size());
    genBody(func, std::max<uint32_t>(1, budget / 2), depth, true);
    uint32_t body_last = static_cast<uint32_t>(cfg.blocks.size()) - 1;

    cfg.blocks[body_last].term = TermKind::CondBranch;
    cfg.blocks[body_last].target = body_first;
    cfg.blocks[body_last].behavior = sampleLoopBehavior();

    // Explicit loop exit keeps the "last block falls through"
    // postcondition for enclosing constructs.
    appendGlueBlock(func);
}

void
CfgBuilder::emitCall(uint32_t func)
{
    uint32_t callee = pickCallee(func);
    if (callee == kNoFunc) {
        emitStraight(func);
        return;
    }
    uint32_t site = appendBlock(func);
    cfg.blocks[site].term = TermKind::Call;
    cfg.blocks[site].calleeFunc = callee;
    // Continuation block: the return lands at its first instruction.
    appendGlueBlock(func);
}

void
CfgBuilder::emitIndirectCall(uint32_t func)
{
    // Virtual-dispatch site: 2..4 candidate callees from the next
    // layer down, skew-weighted. Falls back to a direct call when the
    // layer is too small.
    std::vector<uint32_t> callees;
    for (int attempt = 0; attempt < 8 && callees.size() < 4; ++attempt) {
        uint32_t callee = pickCallee(func);
        if (callee == kNoFunc)
            break;
        bool dup = false;
        for (uint32_t existing : callees)
            dup |= existing == callee;
        if (!dup)
            callees.push_back(callee);
    }
    if (callees.size() < 2) {
        emitCall(func);
        return;
    }

    uint32_t site = appendBlock(func);
    cfg.blocks[site].term = TermKind::IndirectCall;
    std::vector<double> weights;
    for (size_t c = 0; c < callees.size(); ++c)
        weights.push_back(1.0 / std::pow(static_cast<double>(c) + 1.0, 0.8));
    cfg.setIndirect(site, {std::move(callees), std::move(weights)});
    appendGlueBlock(func);    // the return lands here
}

void
CfgBuilder::emitSwitch(uint32_t func, uint32_t budget, unsigned depth,
                       bool in_loop)
{
    uint32_t arms = static_cast<uint32_t>(
        rng.nextRange(2, std::max<uint32_t>(2, profile.maxSwitchArms)));

    uint32_t dispatch = appendBlock(func);
    cfg.blocks[dispatch].term = TermKind::IndirectJump;

    std::vector<uint32_t> arm_entries;
    std::vector<uint32_t> arm_exits;
    uint32_t arm_budget = std::max<uint32_t>(1, budget / (2 * arms));
    for (uint32_t a = 0; a < arms; ++a) {
        arm_entries.push_back(static_cast<uint32_t>(cfg.blocks.size()));
        genBody(func, arm_budget, depth, in_loop);
        uint32_t last = static_cast<uint32_t>(cfg.blocks.size()) - 1;
        cfg.blocks[last].term = TermKind::Jump;
        arm_exits.push_back(last);
    }

    uint32_t join = appendGlueBlock(func);
    for (uint32_t exit : arm_exits)
        cfg.blocks[exit].target = join;

    // Mildly skewed arm popularity: switches rotate across most arms,
    // which is what keeps their code in the medium-term working set.
    std::vector<double> weights;
    for (uint32_t a = 0; a < arms; ++a)
        weights.push_back(1.0 / std::pow(a + 1.0, 0.7));
    cfg.setIndirect(dispatch, {std::move(arm_entries), std::move(weights)});
}

void
CfgBuilder::genBody(uint32_t func, uint32_t budget, unsigned depth,
                    bool in_loop)
{
    uint32_t start = static_cast<uint32_t>(cfg.blocks.size());
    bool can_nest = depth < profile.maxNestDepth;
    // main is the phase driver: it calls into the program much more
    // densely than ordinary functions, which is what rotates the
    // working set through the whole image. Inside loop bodies, calls
    // and further loops are damped per the profile.
    double call_weight = profile.callWeight * (func == 0 ? 3.0 : 1.0);
    double loop_weight = profile.loopWeight;
    if (in_loop) {
        call_weight *= profile.loopCallDamp;
        loop_weight *= profile.loopLoopDamp;
    }

    while (cfg.blocks.size() - start < budget) {
        uint32_t remaining =
            budget - static_cast<uint32_t>(cfg.blocks.size() - start);

        enum { Straight, If, Loop, Call, Switch, IndirectCall };
        std::vector<double> weights(6, 0.0);
        weights[Straight] = profile.straightWeight;
        if (can_nest && remaining >= 3)
            weights[If] = profile.ifWeight;
        if (can_nest && remaining >= 3)
            weights[Loop] = loop_weight;
        if (remaining >= 2 && func + 1 < profile.numFunctions) {
            weights[Call] = call_weight;
            weights[IndirectCall] = profile.indirectCallWeight *
                (in_loop ? profile.loopCallDamp : 1.0) *
                (func == 0 ? 3.0 : 1.0);
        }
        if (can_nest && remaining >= 2 + 2 * 2)
            weights[Switch] = profile.switchWeight;

        switch (rng.nextWeighted(weights)) {
          case Straight:
            emitStraight(func);
            break;
          case If:
            emitIf(func, remaining, depth + 1, in_loop);
            break;
          case Loop:
            emitLoop(func, remaining, depth + 1);
            break;
          case Call:
            emitCall(func);
            break;
          case Switch:
            emitSwitch(func, remaining, depth + 1, in_loop);
            break;
          case IndirectCall:
            emitIndirectCall(func);
            break;
        }
    }

    // Postconditions: something was emitted, and control falls out of
    // the last block.
    if (cfg.blocks.size() == start ||
        cfg.blocks.back().term != TermKind::FallThrough) {
        appendGlueBlock(func);
    }
}

void
CfgBuilder::buildFunction(uint32_t func)
{
    Function fn;
    fn.index = func;
    fn.firstBlock = static_cast<uint32_t>(cfg.blocks.size());
    fn.name = func == 0 ? "main" : "func" + std::to_string(func);

    // Low-variance sizing: a geometric draw here occasionally makes
    // main (or a hot callee) degenerate to a couple of blocks, which
    // collapses the whole program's working set. main gets extra
    // budget — it is the phase driver.
    uint32_t mean = std::max<uint32_t>(4, profile.meanFuncBlocks);
    uint32_t lo = std::max<uint32_t>(4, (mean * 3) / 5);
    uint32_t hi = std::max<uint32_t>(lo + 1, (mean * 7) / 5);
    uint32_t budget = static_cast<uint32_t>(rng.nextRange(lo, hi));
    if (func == 0)
        budget = budget * 2;

    genBody(func, budget, 0, false);

    // Seal the function: main loops forever, everything else returns.
    uint32_t last = static_cast<uint32_t>(cfg.blocks.size()) - 1;
    if (func == 0) {
        cfg.blocks[last].term = TermKind::Jump;
        cfg.blocks[last].target = fn.firstBlock;
    } else {
        cfg.blocks[last].term = TermKind::Return;
    }

    fn.lastBlock = last;
    cfg.functions.push_back(std::move(fn));
}

Cfg
CfgBuilder::build()
{
    cfg = Cfg{};
    for (uint32_t f = 0; f < profile.numFunctions; ++f)
        buildFunction(f);
    cfg.validate();
    return std::move(cfg);
}

} // namespace specfetch
