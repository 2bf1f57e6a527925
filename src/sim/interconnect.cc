#include "sim/interconnect.hh"

#include <cmath>

#include "base/logging.hh"

namespace gnnmark {

Interconnect::Interconnect(InterconnectConfig config) : cfg_(config)
{
    GNN_ASSERT(cfg_.degradedHopFactor > 0 && cfg_.degradedHopFactor <= 1,
               "degraded hop factor must be in (0, 1], got %f",
               cfg_.degradedHopFactor);
}

double
Interconnect::ringBandwidth() const
{
    // A ring uses half the links in each direction.
    return kPerLinkBandwidth * kLinksPerGpu / 2.0;
}

double
Interconnect::allReduceTime(double bytes, int world) const
{
    if (world <= 1 || bytes <= 0)
        return 0.0;
    double w = static_cast<double>(world);
    double steps = 2.0 * (w - 1.0);
    // Every chunk crosses every hop, so the slowest hop gates the ring.
    return steps * (bytes / w) /
               (ringBandwidth() * cfg_.degradedHopFactor) +
           steps * kMessageLatencySec;
}

double
Interconnect::broadcastTime(double bytes, int world) const
{
    if (world <= 1 || bytes <= 0)
        return 0.0;
    double hops = std::ceil(std::log2(static_cast<double>(world)));
    // The broadcast tree shares links with the degraded hop as well.
    return hops * (bytes / (ringBandwidth() * cfg_.degradedHopFactor) +
                   kMessageLatencySec);
}

} // namespace gnnmark
