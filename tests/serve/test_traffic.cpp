/** @file Tests for open-loop traffic generation. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "serve/traffic.hh"

using namespace gnnmark::serve;

namespace {

TrafficConfig
baseConfig()
{
    TrafficConfig cfg;
    cfg.ratePerSec = 2000;
    cfg.durationSec = 1.0;
    cfg.sloSec = 0.01;
    cfg.seed = 9;
    cfg.catalogItems = 100;
    return cfg;
}

void
checkSchedule(const std::vector<Request> &reqs,
              const TrafficConfig &cfg)
{
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(reqs[i].id, static_cast<int64_t>(i));
        EXPECT_GE(reqs[i].arrivalSec, 0.0);
        EXPECT_LT(reqs[i].arrivalSec, cfg.durationSec);
        EXPECT_DOUBLE_EQ(reqs[i].deadlineSec,
                         reqs[i].arrivalSec + cfg.sloSec);
        EXPECT_GE(reqs[i].item, 0);
        EXPECT_LT(reqs[i].item, cfg.catalogItems);
        if (i > 0) {
            EXPECT_GE(reqs[i].arrivalSec, reqs[i - 1].arrivalSec);
        }
    }
}

} // namespace

TEST(Traffic, ProcessNamesRoundTrip)
{
    for (ArrivalProcess p :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty,
          ArrivalProcess::Diurnal}) {
        ArrivalProcess back = ArrivalProcess::Poisson;
        EXPECT_TRUE(parseArrivalProcess(arrivalProcessName(p), back));
        EXPECT_EQ(static_cast<int>(back), static_cast<int>(p));
    }
    ArrivalProcess ignored;
    EXPECT_FALSE(parseArrivalProcess("uniform", ignored));
    EXPECT_FALSE(parseArrivalProcess("", ignored));
}

TEST(Traffic, DeterministicForFixedConfig)
{
    const TrafficConfig cfg = baseConfig();
    const std::vector<Request> a = generateTraffic(cfg);
    const std::vector<Request> b = generateTraffic(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalSec, b[i].arrivalSec);
        EXPECT_EQ(a[i].item, b[i].item);
    }
    TrafficConfig other = cfg;
    other.seed = 10;
    const std::vector<Request> c = generateTraffic(other);
    ASSERT_FALSE(c.empty());
    EXPECT_TRUE(c.size() != a.size() ||
                c[0].arrivalSec != a[0].arrivalSec);
}

TEST(Traffic, PoissonHitsTheMeanRate)
{
    TrafficConfig cfg = baseConfig();
    cfg.durationSec = 4.0;
    const std::vector<Request> reqs = generateTraffic(cfg);
    checkSchedule(reqs, cfg);
    const double expected = cfg.ratePerSec * cfg.durationSec;
    EXPECT_NEAR(static_cast<double>(reqs.size()), expected,
                5.0 * std::sqrt(expected)); // 5 sigma
}

TEST(Traffic, BurstySchedulesStaySortedAndInWindow)
{
    TrafficConfig cfg = baseConfig();
    cfg.process = ArrivalProcess::Bursty;
    // Many ON/OFF cycles so the realized mean concentrates.
    cfg.durationSec = 20 * kBurstPeriodSec;
    const std::vector<Request> reqs = generateTraffic(cfg);
    EXPECT_FALSE(reqs.empty());
    checkSchedule(reqs, cfg);
    // The MMPP keeps the long-run mean near the base rate.
    const double expected = cfg.ratePerSec * cfg.durationSec;
    EXPECT_GT(static_cast<double>(reqs.size()), 0.4 * expected);
    EXPECT_LT(static_cast<double>(reqs.size()), 2.5 * expected);
}

TEST(Traffic, DiurnalThinsBelowThePeak)
{
    TrafficConfig cfg = baseConfig();
    cfg.process = ArrivalProcess::Diurnal;
    cfg.durationSec = kDiurnalPeriodSec;
    const std::vector<Request> reqs = generateTraffic(cfg);
    EXPECT_FALSE(reqs.empty());
    checkSchedule(reqs, cfg);
    // ratePerSec is the peak; a thinned sinusoid must land below it.
    EXPECT_LT(static_cast<double>(reqs.size()),
              cfg.ratePerSec * cfg.durationSec);
    // First half-period (around the trough) is quieter than the
    // second (around the peak).
    size_t early = 0;
    for (const Request &r : reqs)
        if (r.arrivalSec < 0.5 * cfg.durationSec)
            ++early;
    EXPECT_LT(early, reqs.size() - early);
}

TEST(Traffic, PopularityConcentratesOnTheHead)
{
    TrafficConfig cfg = baseConfig();
    cfg.durationSec = 2.0;
    static_assert(kPopularitySkew == 3.0);
    const std::vector<Request> reqs = generateTraffic(cfg);
    size_t head = 0;
    for (const Request &r : reqs)
        if (r.item < cfg.catalogItems / 10)
            ++head;
    // u^3 puts ~46% of draws in the first decile (0.1^(1/3)).
    EXPECT_GT(static_cast<double>(head),
              0.3 * static_cast<double>(reqs.size()));
}

TEST(TrafficDeath, RejectsNonPositiveKnobs)
{
    TrafficConfig cfg = baseConfig();
    cfg.ratePerSec = 0;
    EXPECT_DEATH(generateTraffic(cfg), "ratePerSec");
    cfg = baseConfig();
    cfg.durationSec = -1;
    EXPECT_DEATH(generateTraffic(cfg), "durationSec");
    cfg = baseConfig();
    cfg.sloSec = 0;
    EXPECT_DEATH(generateTraffic(cfg), "sloSec");
    cfg = baseConfig();
    cfg.catalogItems = 0;
    EXPECT_DEATH(generateTraffic(cfg), "catalogItems");
}

TEST(TrafficDeath, RejectsAnOfferBeyondTheRequestCap)
{
    // 1e12 arrivals would be reserved before the first one is drawn.
    TrafficConfig cfg = baseConfig();
    cfg.ratePerSec = 1e12;
    cfg.durationSec = 1;
    EXPECT_DEATH(generateTraffic(cfg), "offers 1e\\+12 requests");
}
