#include "serve/traffic.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/power_law.hh"
#include "base/rng.hh"

namespace gnnmark {
namespace serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Next arrival gap of a Poisson process (rate > 0). */
double
expGap(Rng &rng, double rate)
{
    double u = 0;
    while (u == 0.0)
        u = rng.uniform();
    return -std::log(u) / rate;
}

/** Head-heavy item draw via the shared inverse-CDF sampler. */
int32_t
drawItem(Rng &rng, const PowerLawSampler &popularity)
{
    return static_cast<int32_t>(popularity.draw(rng));
}

void
appendPoisson(Rng &rng, const TrafficConfig &cfg,
              std::vector<double> &arrivals)
{
    for (double t = expGap(rng, cfg.ratePerSec); t < cfg.durationSec;
         t += expGap(rng, cfg.ratePerSec)) {
        arrivals.push_back(t);
    }
}

void
appendBursty(Rng &rng, const TrafficConfig &cfg,
             std::vector<double> &arrivals)
{
    const double f = kBurstOnFraction;
    const double on_rate = kBurstFactor * cfg.ratePerSec;
    // Rebalance the OFF rate so the long-run mean stays ratePerSec;
    // a burst factor above 1/f would need a negative OFF rate, so
    // clamp at zero (silent troughs) and accept a hotter mean.
    const double off_rate = std::max(
        0.0, cfg.ratePerSec * (1.0 - kBurstFactor * f) / (1.0 - f));
    bool on = false; // start quiet: bursts interrupt a calm baseline
    double phase_begin = 0;
    while (phase_begin < cfg.durationSec) {
        const double mean_len =
            on ? f * kBurstPeriodSec : (1.0 - f) * kBurstPeriodSec;
        const double phase_end =
            phase_begin + expGap(rng, 1.0 / mean_len);
        const double rate = on ? on_rate : off_rate;
        if (rate > 0) {
            for (double t = phase_begin + expGap(rng, rate);
                 t < std::min(phase_end, cfg.durationSec);
                 t += expGap(rng, rate)) {
                arrivals.push_back(t);
            }
        }
        phase_begin = phase_end;
        on = !on;
    }
}

void
appendDiurnal(Rng &rng, const TrafficConfig &cfg,
              std::vector<double> &arrivals)
{
    // ratePerSec is the *peak*; thin a homogeneous process at the
    // peak against the sinusoid (trough at t = 0, peak mid-period).
    const double peak = cfg.ratePerSec;
    auto rateAt = [&](double t) {
        const double phase =
            2.0 * kPi * t / kDiurnalPeriodSec - 0.5 * kPi;
        const double swing = 0.5 * (1.0 + std::sin(phase));
        return peak * (kDiurnalMinFactor +
                       (1.0 - kDiurnalMinFactor) * swing);
    };
    for (double t = expGap(rng, peak); t < cfg.durationSec;
         t += expGap(rng, peak)) {
        if (rng.uniform() < rateAt(t) / peak)
            arrivals.push_back(t);
    }
}

} // namespace

const char *
arrivalProcessName(ArrivalProcess process)
{
    switch (process) {
      case ArrivalProcess::Poisson:
        return "poisson";
      case ArrivalProcess::Bursty:
        return "bursty";
      case ArrivalProcess::Diurnal:
        return "diurnal";
    }
    return "unknown";
}

bool
parseArrivalProcess(const std::string &name, ArrivalProcess &process)
{
    for (ArrivalProcess p :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty,
          ArrivalProcess::Diurnal}) {
        if (name == arrivalProcessName(p)) {
            process = p;
            return true;
        }
    }
    return false;
}

std::vector<Request>
generateTraffic(const TrafficConfig &config)
{
    GNN_ASSERT(config.ratePerSec > 0, "traffic needs ratePerSec > 0");
    GNN_ASSERT(config.durationSec > 0, "traffic needs durationSec > 0");
    GNN_ASSERT(config.sloSec > 0, "traffic needs sloSec > 0");
    GNN_ASSERT(config.catalogItems > 0,
               "traffic needs catalogItems > 0");
    const double offered = config.ratePerSec * config.durationSec;
    GNN_ASSERT(offered <= kMaxOfferedRequests,
               "traffic offers %g requests; at most %g fit in one run",
               offered, kMaxOfferedRequests);

    Rng rng(config.seed ^ 0x54524146u); // "TRAF"
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<size_t>(offered * 1.25) + 16);
    switch (config.process) {
      case ArrivalProcess::Poisson:
        appendPoisson(rng, config, arrivals);
        break;
      case ArrivalProcess::Bursty:
        appendBursty(rng, config, arrivals);
        break;
      case ArrivalProcess::Diurnal:
        appendDiurnal(rng, config, arrivals);
        break;
    }
    // Phased generators emit in order already; sort defensively so
    // the schedule contract never depends on the process family.
    std::sort(arrivals.begin(), arrivals.end());

    std::vector<Request> out;
    out.reserve(arrivals.size());
    const PowerLawSampler popularity(config.catalogItems,
                                     kPopularitySkew);
    for (double t : arrivals) {
        Request r;
        r.id = static_cast<int64_t>(out.size());
        r.arrivalSec = t;
        r.deadlineSec = t + config.sloSec;
        r.item = drawItem(rng, popularity);
        out.push_back(r);
    }
    return out;
}

} // namespace serve
} // namespace gnnmark
