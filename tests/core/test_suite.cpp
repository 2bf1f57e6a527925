/** @file Suite registry and report emitter tests. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/characterization.hh"
#include "core/reports.hh"
#include "core/suite.hh"

using namespace gnnmark;

TEST(Suite, RegistryHasAllNineConfigs)
{
    const auto &names = BenchmarkSuite::workloadNames();
    EXPECT_EQ(names.size(), 9u);
    EXPECT_EQ(names.front(), "PSAGE-MVL");
    EXPECT_EQ(names.back(), "TLSTM");
}

TEST(Suite, CreateAllInstantiatesEverything)
{
    auto all = BenchmarkSuite::createAll();
    EXPECT_EQ(all.size(), BenchmarkSuite::workloadNames().size());
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i]->name(), BenchmarkSuite::workloadNames()[i]);
}

TEST(SuiteDeath, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(BenchmarkSuite::create("NOPE"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Reports, TableOnePrintsEveryWorkload)
{
    std::ostringstream os;
    reports::printTableOne(os);
    for (const std::string &name : BenchmarkSuite::workloadNames())
        EXPECT_NE(os.str().find(name), std::string::npos) << name;
    EXPECT_NE(os.str().find("PinSAGE"), std::string::npos);
    EXPECT_NE(os.str().find("DGL"), std::string::npos);
    EXPECT_NE(os.str().find("Heterogeneous"), std::string::npos);
    EXPECT_NE(os.str().find("Workload statistics at scale 1"),
              std::string::npos);
}

TEST(Reports, ScalingTableNamesItsMode)
{
    ScalingResult point;
    point.worldSize = 2;
    point.epochTimeSec = 0.004;
    point.computeTimeSec = 0.003;
    point.speedup = 0.75;
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        curves = {{"INVENTED", {point}}};

    std::ostringstream strong, weak;
    reports::printFig9Scaling(curves, /*weak=*/false, strong);
    reports::printFig9Scaling(curves, /*weak=*/true, weak);
    EXPECT_NE(strong.str().find("strong"), std::string::npos);
    EXPECT_NE(strong.str().find("Speedup"), std::string::npos);
    EXPECT_NE(weak.str().find("Efficiency"), std::string::npos);
    EXPECT_NE(weak.str().find("INVENTED"), std::string::npos);
    EXPECT_EQ(weak.str().find("strong"), std::string::npos);
    EXPECT_EQ(weak.str().find("Speedup"), std::string::npos);
}

TEST(Reports, WorkloadSummaryWithoutLossesSkipsTheLossRow)
{
    // A replayed trace of a run with no measured iterations has no
    // losses; the summary must still print.
    WorkloadProfile profile;
    profile.name = "EMPTY";
    std::ostringstream os;
    reports::printWorkloadSummary(profile, os);
    EXPECT_NE(os.str().find("EMPTY summary"), std::string::npos);
    EXPECT_NE(os.str().find("kernel launches"), std::string::npos);
    EXPECT_EQ(os.str().find("loss"), std::string::npos);

    profile.losses = {2.5, 1.25};
    std::ostringstream with_losses;
    reports::printWorkloadSummary(profile, with_losses);
    EXPECT_NE(with_losses.str().find("2.5000 -> 1.2500"),
              std::string::npos);
}
