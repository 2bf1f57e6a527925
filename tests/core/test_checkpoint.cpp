/** @file Checkpoint/resume tests: a restored run must continue the
 *  training stream bitwise-identically to an uninterrupted one. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/suite.hh"
#include "ops/exec_context.hh"
#include "sim/gpu_device.hh"

using namespace gnnmark;

namespace {

WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.seed = 77;
    cfg.scale = 0.25;
    return cfg;
}

/** Train `iters` steps under a bound device, collecting losses. */
std::vector<float>
train(Workload &wl, GpuDevice &dev, int iters)
{
    ContextGuard guard(&dev);
    std::vector<float> losses;
    for (int i = 0; i < iters; ++i)
        losses.push_back(wl.trainIteration());
    return losses;
}

} // namespace

/** Bitwise-deterministic resume, per ISSUE acceptance: >= 2 models. */
class CheckpointResume : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointResume, ResumedRunIsBitwiseIdentical)
{
    // Uninterrupted reference: 4 + 4 iterations straight through.
    auto ref = BenchmarkSuite::create(GetParam());
    ref->setup(smallConfig());
    ASSERT_TRUE(ref->supportsCheckpoint());
    GpuDevice ref_dev(GpuConfig::v100(), 9);
    train(*ref, ref_dev, 4);
    Checkpoint mid = captureCheckpoint(*ref, 4);
    std::vector<float> ref_losses = train(*ref, ref_dev, 4);
    Checkpoint ref_final = captureCheckpoint(*ref, 8);

    // Interrupted run: fresh process state, restore, same 4 tail steps.
    auto resumed = BenchmarkSuite::create(GetParam());
    resumed->setup(smallConfig());
    EXPECT_EQ(restoreCheckpoint(*resumed, mid), 4u);
    GpuDevice resumed_dev(GpuConfig::v100(), 9);
    std::vector<float> resumed_losses = train(*resumed, resumed_dev, 4);
    Checkpoint resumed_final = captureCheckpoint(*resumed, 8);

    EXPECT_EQ(ref_losses, resumed_losses);
    ASSERT_EQ(ref_final.state.size(), resumed_final.state.size());
    EXPECT_EQ(ref_final.state, resumed_final.state); // bitwise
}

INSTANTIATE_TEST_SUITE_P(Suite, CheckpointResume,
                         ::testing::Values("STGCN", "KGNNL", "ARGA"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Checkpoint, EverySuiteWorkloadRoundTrips)
{
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        auto wl = BenchmarkSuite::create(name);
        wl->setup(smallConfig());
        ASSERT_TRUE(wl->supportsCheckpoint()) << name;
        GpuDevice dev;
        train(*wl, dev, 1);
        Checkpoint ckpt = captureCheckpoint(*wl, 1);
        EXPECT_GT(ckpt.sizeBytes(), 0) << name;
        // Restoring a freshly captured image into the same workload
        // must reproduce the image exactly.
        EXPECT_EQ(restoreCheckpoint(*wl, ckpt), 1u) << name;
        Checkpoint again = captureCheckpoint(*wl, 1);
        EXPECT_EQ(ckpt.state, again.state) << name;
    }
}

TEST(CheckpointDeath, WorkloadNameMismatchIsFatal)
{
    auto a = BenchmarkSuite::create("STGCN");
    a->setup(smallConfig());
    Checkpoint ckpt = captureCheckpoint(*a, 0);

    auto b = BenchmarkSuite::create("KGNNL");
    b->setup(smallConfig());
    EXPECT_EXIT(restoreCheckpoint(*b, ckpt),
                ::testing::ExitedWithCode(1), "KGNNL");
}
