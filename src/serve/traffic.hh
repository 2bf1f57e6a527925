/**
 * @file
 * Open-loop traffic generation: the arrival schedule is drawn up
 * front from a seeded Rng, so a run's offered load is independent of
 * how the server copes with it (requests keep arriving while the
 * system drowns — the property that makes overload experiments
 * honest) and identical across processes for a fixed config.
 *
 * Three arrival processes:
 *  - poisson: homogeneous Poisson at ratePerSec.
 *  - bursty:  Markov-modulated Poisson (exponential ON/OFF phases;
 *             ON bursts at kBurstFactor x the base rate, OFF rate is
 *             rebalanced so the long-run mean stays ratePerSec).
 *  - diurnal: sinusoidal rate (thinning against the peak), one
 *             "day" per kDiurnalPeriodSec.
 *
 * Item popularity follows an approximate power law (item =
 * floor(N * u^kPopularitySkew)), giving the head-heavy reuse real
 * recommendation traffic shows — and the fallback cache a fighting
 * chance.
 */

#ifndef GNNMARK_SERVE_TRAFFIC_HH
#define GNNMARK_SERVE_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace gnnmark {
namespace serve {

/** Arrival process family. */
enum class ArrivalProcess : uint8_t
{
    Poisson,
    Bursty,
    Diurnal,
};

/** Stable lower-case name, e.g. "poisson". */
const char *arrivalProcessName(ArrivalProcess process);

/** Parse a process name; returns false on unknown input. */
bool parseArrivalProcess(const std::string &name,
                         ArrivalProcess &process);

/** Knobs for one generated arrival schedule. */
struct TrafficConfig
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    /** Long-run mean arrival rate (requests per simulated second). */
    double ratePerSec = 500;
    /** Arrivals stop after this horizon (the server then drains). */
    double durationSec = 4.0;
    /** Per-request SLO: deadline = arrival + sloSec. */
    double sloSec = 0.05;
    uint64_t seed = 42;

    /** Item id space; queries hit [0, catalogItems). */
    int64_t catalogItems = 1000;
};

/** Popularity power-law skew (>= 1); higher concentrates on the head. */
inline constexpr double kPopularitySkew = 3.0;

/** @{ Bursty (MMPP) shape. */
inline constexpr double kBurstFactor = 4.0;     ///< ON rate multiplier
inline constexpr double kBurstOnFraction = 0.2; ///< long-run time ON
inline constexpr double kBurstPeriodSec = 1.0;  ///< mean ON+OFF cycle
/** @} */
static_assert(kBurstOnFraction > 0 && kBurstOnFraction < 1,
              "bursts need both an ON and an OFF phase");

/** @{ Diurnal shape. */
inline constexpr double kDiurnalPeriodSec = 4.0; ///< one synthetic "day"
inline constexpr double kDiurnalMinFactor = 0.25; ///< trough / peak rate
/** @} */
static_assert(kDiurnalMinFactor >= 0 && kDiurnalMinFactor <= 1,
              "the diurnal trough is a fraction of the peak");

/**
 * Most requests one schedule may offer (ratePerSec x durationSec):
 * generateTraffic() builds every arrival before the event loop runs.
 */
inline constexpr double kMaxOfferedRequests = 1e7;

/**
 * @{ Largest replica pool and batching cap one run may ask for:
 * ServingSimulator keeps state per replica, and priceBatchCosts()
 * runs every power-of-two batch size up to the cap.
 */
inline constexpr int kMaxReplicas = 1024;
inline constexpr int kMaxBatchSize = 4096;
/** @} */

/**
 * Generate the full arrival schedule: requests sorted by arrival
 * time, ids dense in arrival order. Deterministic in the config,
 * which may offer at most kMaxOfferedRequests.
 */
std::vector<Request> generateTraffic(const TrafficConfig &config);

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_TRAFFIC_HH
