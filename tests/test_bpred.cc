/**
 * @file
 * Unit tests for the combined branch predictor.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cpu/bpred.hh"

namespace
{

using lsim::Addr;
using lsim::cpu::BpredConfig;
using lsim::cpu::BranchPredictor;
using lsim::trace::MicroOp;
using lsim::trace::OpClass;

MicroOp
branch(Addr pc, bool taken, Addr target = 0x500000)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Branch;
    op.taken = taken;
    op.target = target;
    return op;
}

MicroOp
call(Addr pc, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Call;
    op.taken = true;
    op.target = target;
    return op;
}

MicroOp
ret(Addr pc, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Return;
    op.taken = true;
    op.target = target;
    return op;
}

TEST(Bpred, LearnsStrongBias)
{
    BranchPredictor bp{BpredConfig{}};
    int mispredicts = 0;
    for (int i = 0; i < 100; ++i) {
        const auto res = bp.predict(branch(0x1000, true));
        if (res.mispredict)
            ++mispredicts;
    }
    // Counters saturate after a couple of executions.
    EXPECT_LE(mispredicts, 5);
    EXPECT_EQ(bp.stats().cond_branches, 100u);
}

TEST(Bpred, GshareLearnsAlternatingPattern)
{
    // T,N,T,N... defeats a bimodal counter but is captured by global
    // history. The combined predictor must converge to near-zero
    // mispredicts.
    BranchPredictor bp{BpredConfig{}};
    int late_mispredicts = 0;
    for (int i = 0; i < 600; ++i) {
        const auto res = bp.predict(branch(0x2000, i % 2 == 0));
        if (i >= 300 && res.mispredict)
            ++late_mispredicts;
    }
    EXPECT_LE(late_mispredicts, 10);
}

TEST(Bpred, PeriodFourPattern)
{
    BranchPredictor bp{BpredConfig{}};
    int late_mispredicts = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = (i % 4) == 3; // NNNT repeating
        const auto res = bp.predict(branch(0x3000, taken));
        if (i >= 1000 && res.mispredict)
            ++late_mispredicts;
    }
    EXPECT_LE(late_mispredicts, 20);
}

TEST(Bpred, BtbColdThenWarm)
{
    BranchPredictor bp{BpredConfig{}};
    // Train direction first (not-taken predicted initially, so the
    // first taken executions are direction mispredicts).
    for (int i = 0; i < 4; ++i)
        (void)bp.predict(branch(0x4000, true, 0x600000));
    const auto res = bp.predict(branch(0x4000, true, 0x600000));
    EXPECT_FALSE(res.mispredict);
    EXPECT_FALSE(res.btb_cold);
    EXPECT_TRUE(res.target_known);
}

TEST(Bpred, RasPredictsNestedReturns)
{
    BranchPredictor bp{BpredConfig{}};
    // call A (from 0x1000) -> call B (from 0x2000) -> return to
    // 0x2004 -> return to 0x1004.
    (void)bp.predict(call(0x1000, 0xa000));
    (void)bp.predict(call(0x2000, 0xb000));
    const auto r1 = bp.predict(ret(0xb00c, 0x2004));
    EXPECT_FALSE(r1.mispredict);
    const auto r2 = bp.predict(ret(0xa00c, 0x1004));
    EXPECT_FALSE(r2.mispredict);
    EXPECT_EQ(bp.stats().ras_pushes, 2u);
    EXPECT_EQ(bp.stats().ras_pops, 2u);
}

TEST(Bpred, RasMismatchIsMispredict)
{
    BranchPredictor bp{BpredConfig{}};
    (void)bp.predict(call(0x1000, 0xa000));
    const auto res = bp.predict(ret(0xa00c, 0x9999)); // wrong target
    EXPECT_TRUE(res.mispredict);
    EXPECT_EQ(bp.stats().target_mispredicts, 1u);
}

TEST(Bpred, EmptyRasIsMispredict)
{
    BranchPredictor bp{BpredConfig{}};
    const auto res = bp.predict(ret(0xa00c, 0x1004));
    EXPECT_TRUE(res.mispredict);
}

TEST(Bpred, CallsWarmBtb)
{
    BranchPredictor bp{BpredConfig{}};
    const auto first = bp.predict(call(0x7000, 0xc000));
    EXPECT_TRUE(first.btb_cold);
    const auto second = bp.predict(call(0x7000, 0xc000));
    EXPECT_FALSE(second.btb_cold);
    EXPECT_FALSE(second.mispredict);
}

TEST(Bpred, ResetClearsState)
{
    BranchPredictor bp{BpredConfig{}};
    for (int i = 0; i < 10; ++i)
        (void)bp.predict(branch(0x1000, true));
    bp.reset();
    EXPECT_EQ(bp.stats().lookups, 0u);
}

TEST(BpredDeath, NonControlOp)
{
    BranchPredictor bp{BpredConfig{}};
    MicroOp op;
    op.cls = OpClass::IntAlu;
    EXPECT_DEATH((void)bp.predict(op), "non-control");
}

TEST(Bpred, ConfigValidationThrows)
{
    const auto message = [](const BpredConfig &config) {
        try {
            BranchPredictor bp(config);
        } catch (const std::invalid_argument &err) {
            return std::string(err.what());
        }
        return std::string("no exception");
    };
    BpredConfig bad;
    bad.bimodal_entries = 1000; // not a power of two
    EXPECT_EQ(message(bad), "CoreConfig: bimodal entries (1000) must "
                            "be a nonzero power of two");
    BpredConfig bad2;
    bad2.hist_bits = 0;
    EXPECT_EQ(message(bad2),
              "CoreConfig: history bits 0 outside [1,20]");
}

} // namespace
