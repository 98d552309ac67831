/**
 * @file
 * Unit tests for the VPC controller's software-visible control
 * registers (Section 4).
 */

#include <gtest/gtest.h>

#include "arbiter/vpc_arbiter.hh"
#include "cache/vpc_controller.hh"
#include "sim/simulator.hh"

namespace vpc
{
namespace
{

class VpcControllerTest : public ::testing::Test
{
  protected:
    VpcControllerTest()
    {
        cfg.numProcessors = 4;
        cfg.arbiterPolicy = ArbiterPolicy::Vpc;
        // Start with nothing allocated: the controller owns shares.
        cfg.allowUnallocatedShares = true;
        cfg.shares.assign(4, QosShare{0.0, 0.0});
        cfg.validate();
        mc = std::make_unique<MemoryController>(cfg.mem, 4, 64,
                                                sim.events());
        l2 = std::make_unique<L2Cache>(cfg, sim.events(), *mc);
        ctrl = std::make_unique<VpcController>(*l2, 4);
    }

    SystemConfig cfg;
    Simulator sim;
    std::unique_ptr<MemoryController> mc;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<VpcController> ctrl;
};

TEST_F(VpcControllerTest, RegistersStartZeroed)
{
    for (ThreadId t = 0; t < 4; ++t) {
        const VpcConfigRegister &r = ctrl->readRegister(t);
        EXPECT_DOUBLE_EQ(r.phiTag, 0.0);
        EXPECT_DOUBLE_EQ(r.beta, 0.0);
    }
    EXPECT_DOUBLE_EQ(ctrl->unallocatedTag(), 1.0);
    EXPECT_DOUBLE_EQ(ctrl->unallocatedCapacity(), 1.0);
}

TEST_F(VpcControllerTest, WriteAppliesToAllBanksArbiters)
{
    ASSERT_TRUE(ctrl->writeRegister(
        1, VpcConfigRegister::uniform(0.5, 0.25)));
    for (unsigned b = 0; b < l2->numBanks(); ++b) {
        // The arbiters are VPC arbiters; their shares must reflect
        // the register write.
        auto &tag = dynamic_cast<VpcArbiter &>(
            l2->bank(b).tagArray().arbiter());
        auto &data = dynamic_cast<VpcArbiter &>(
            l2->bank(b).dataArray().arbiter());
        EXPECT_DOUBLE_EQ(tag.share(1), 0.5);
        EXPECT_DOUBLE_EQ(data.share(1), 0.5);
    }
}

TEST_F(VpcControllerTest, PerResourceSharesAreIndependent)
{
    VpcConfigRegister reg;
    reg.phiTag = 0.2;
    reg.phiData = 0.6;
    reg.phiBus = 0.4;
    reg.beta = 0.1;
    ASSERT_TRUE(ctrl->writeRegister(0, reg));
    auto &tag = dynamic_cast<VpcArbiter &>(
        l2->bank(0).tagArray().arbiter());
    auto &data = dynamic_cast<VpcArbiter &>(
        l2->bank(0).dataArray().arbiter());
    auto &bus = dynamic_cast<VpcArbiter &>(
        l2->bank(0).dataBus().arbiter());
    EXPECT_DOUBLE_EQ(tag.share(0), 0.2);
    EXPECT_DOUBLE_EQ(data.share(0), 0.6);
    EXPECT_DOUBLE_EQ(bus.share(0), 0.4);
    EXPECT_DOUBLE_EQ(ctrl->unallocatedData(), 0.4);
}

TEST_F(VpcControllerTest, RejectsOverAllocation)
{
    ASSERT_TRUE(ctrl->writeRegister(
        0, VpcConfigRegister::uniform(0.7, 0.5)));
    // 0.7 + 0.4 > 1: rejected, register unchanged.
    EXPECT_FALSE(ctrl->writeRegister(
        1, VpcConfigRegister::uniform(0.4, 0.2)));
    EXPECT_DOUBLE_EQ(ctrl->readRegister(1).phiTag, 0.0);
    // 0.7 + 0.3 = 1: accepted.
    EXPECT_TRUE(ctrl->writeRegister(
        1, VpcConfigRegister::uniform(0.3, 0.2)));
}

TEST_F(VpcControllerTest, RewriteReplacesOldAllocation)
{
    ASSERT_TRUE(ctrl->writeRegister(
        0, VpcConfigRegister::uniform(0.9, 0.9)));
    // Shrinking thread 0 frees room for thread 1.
    ASSERT_TRUE(ctrl->writeRegister(
        0, VpcConfigRegister::uniform(0.25, 0.25)));
    EXPECT_TRUE(ctrl->writeRegister(
        1, VpcConfigRegister::uniform(0.75, 0.75)));
    EXPECT_NEAR(ctrl->unallocatedTag(), 0.0, 1e-12);
}

TEST_F(VpcControllerTest, RejectsOutOfRangeFields)
{
    VpcConfigRegister reg;
    reg.phiTag = -0.1;
    EXPECT_FALSE(ctrl->writeRegister(0, reg));
    reg.phiTag = 0.5;
    reg.beta = 1.5;
    EXPECT_FALSE(ctrl->writeRegister(0, reg));
}

TEST_F(VpcControllerTest, CapacityShareReachesTheCapacityManager)
{
    ASSERT_TRUE(ctrl->writeRegister(
        2, VpcConfigRegister::uniform(0.5, 0.5)));
    EXPECT_EQ(l2->bank(0).array().wayQuota(2), 16u); // 0.5 * 32 ways
}

} // namespace
} // namespace vpc
