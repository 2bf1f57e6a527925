/** @file Workload-level tests: every suite member sets up, trains,
 *  emits kernels, and (for the robustly-learnable ones) reduces its
 *  loss. Kept at small scale so the whole file runs in seconds. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/suite.hh"
#include "models/kgnn.hh"
#include "ops/exec_context.hh"
#include "profiler/profiler.hh"

using namespace gnnmark;

namespace {

WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.seed = 1234;
    cfg.scale = 0.25;
    return cfg;
}

} // namespace

/** Parameterised over every workload in the registry. */
class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSweep, MetadataComplete)
{
    auto wl = BenchmarkSuite::create(GetParam());
    EXPECT_EQ(wl->name(), GetParam());
    const std::vector<TableOneRow> &rows = BenchmarkSuite::tableOne();
    const auto row = std::find_if(
        rows.begin(), rows.end(),
        [](const TableOneRow &r) { return r.workload == GetParam(); });
    ASSERT_NE(row, rows.end());
    EXPECT_FALSE(row->model.empty());
    EXPECT_FALSE(row->framework.empty());
    EXPECT_FALSE(row->domain.empty());
    EXPECT_FALSE(row->dataset.empty());
    EXPECT_FALSE(row->graphType.empty());
}

TEST_P(WorkloadSweep, TrainsAndEmitsKernels)
{
    auto wl = BenchmarkSuite::create(GetParam());
    wl->setup(smallConfig());
    EXPECT_GT(wl->iterationsPerEpoch(), 0);

    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    {
        ContextGuard guard(&dev);
        float loss1 = wl->trainIteration();
        float loss2 = wl->trainIteration();
        EXPECT_TRUE(std::isfinite(loss1));
        EXPECT_TRUE(std::isfinite(loss2));
    }
    EXPECT_GT(prof.totalLaunches(), 10);
    EXPECT_GT(prof.totalKernelTimeSec(), 0);
    EXPECT_GT(prof.totalTransferBytes(), 0); // inputs were uploaded
    EXPECT_GT(wl->parameterBytes(), 0);
}

TEST_P(WorkloadSweep, DeterministicAcrossRuns)
{
    auto run = [&]() {
        auto wl = BenchmarkSuite::create(GetParam());
        wl->setup(smallConfig());
        float loss = 0;
        for (int i = 0; i < 2; ++i)
            loss = wl->trainIteration();
        return loss;
    };
    EXPECT_FLOAT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadSweep,
    ::testing::ValuesIn(BenchmarkSuite::workloadNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

namespace {

/** Average loss of the first and last `k` of `n` iterations. */
std::pair<float, float>
lossTrend(Workload &wl, int n, int k)
{
    std::vector<float> losses;
    for (int i = 0; i < n; ++i)
        losses.push_back(wl.trainIteration());
    float head = 0, tail = 0;
    for (int i = 0; i < k; ++i) {
        head += losses[i] / k;
        tail += losses[n - 1 - i] / k;
    }
    return {head, tail};
}

} // namespace

TEST(WorkloadLearning, DeepGcnLossDecreases)
{
    auto wl = BenchmarkSuite::create("DGCN");
    wl->setup(smallConfig());
    auto [head, tail] = lossTrend(*wl, 20, 3);
    EXPECT_LT(tail, head * 0.8f);
}

TEST(WorkloadLearning, KgnnLossDecreases)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    wl->setup(smallConfig());
    auto [head, tail] = lossTrend(*wl, 16, 3);
    EXPECT_LT(tail, head * 0.9f);
}

TEST(WorkloadLearning, GraphWriterLossDecreases)
{
    auto wl = BenchmarkSuite::create("GW");
    wl->setup(smallConfig());
    auto [head, tail] = lossTrend(*wl, 10, 2);
    EXPECT_LT(tail, head);
}

TEST(WorkloadLearning, ArgaLossDecreases)
{
    auto wl = BenchmarkSuite::create("ARGA");
    wl->setup(smallConfig());
    auto [head, tail] = lossTrend(*wl, 8, 2);
    EXPECT_LT(tail, head);
}

TEST(WorkloadLearning, TreeLstmLossDecreases)
{
    auto wl = BenchmarkSuite::create("TLSTM");
    wl->setup(smallConfig());
    auto [head, tail] = lossTrend(*wl, 24, 4);
    EXPECT_LT(tail, head);
}

TEST(WorkloadBehaviour, PinSageSamplerNotDdpCompatible)
{
    auto psage = BenchmarkSuite::create("PSAGE-MVL");
    EXPECT_FALSE(psage->samplerDdpCompatible());
    EXPECT_TRUE(psage->supportsMultiGpu());
    auto arga = BenchmarkSuite::create("ARGA");
    EXPECT_FALSE(arga->supportsMultiGpu());
    auto dgcn = BenchmarkSuite::create("DGCN");
    EXPECT_TRUE(dgcn->samplerDdpCompatible());
}

TEST(WorkloadBehaviour, NwpFeaturesWiderMeansMoreTransfer)
{
    WorkloadConfig cfg = smallConfig();
    auto measure = [&](const std::string &name) {
        auto wl = BenchmarkSuite::create(name);
        wl->setup(cfg);
        GpuDevice dev;
        Profiler prof;
        dev.addObserver(&prof);
        ContextGuard guard(&dev);
        wl->trainIteration();
        return prof.totalTransferBytes();
    };
    // 10x wider item features show up in the uploads.
    EXPECT_GT(measure("PSAGE-NWP"), 3 * measure("PSAGE-MVL"));
}

TEST(KgnnSetGraphs, TwoSetsMatchUndirectedEdges)
{
    Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}}, true);
    std::vector<int32_t> ids(4, 0);
    SetGraph two = buildTwoSets(g, ids);
    EXPECT_EQ(two.numSets(), 4); // undirected edge count
    for (int64_t s = 0; s < two.numSets(); ++s)
        EXPECT_LT(two.memberA[s], two.memberB[s]);
}

TEST(KgnnSetGraphs, ThreeSetsShareTwoSets)
{
    Graph g(3, {{0, 1}, {1, 2}}, true);
    std::vector<int32_t> ids(3, 0);
    SetGraph two = buildTwoSets(g, ids);
    SetGraph three = buildThreeSets(two, 4);
    // The path 0-1-2 forms exactly one connected triple.
    EXPECT_EQ(three.numSets(), 1);
}
