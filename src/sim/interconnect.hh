/**
 * @file
 * Multi-GPU interconnect model (NVLink, as on the paper's 4xV100 node:
 * six links per GPU, 300 GB/s aggregate).
 */

#ifndef GNNMARK_SIM_INTERCONNECT_HH
#define GNNMARK_SIM_INTERCONNECT_HH

namespace gnnmark {

/** @{ NVLink parameters. */
inline constexpr int kLinksPerGpu = 6;
/** Bytes/s per link per direction. */
inline constexpr double kPerLinkBandwidth = 25e9;
inline constexpr double kMessageLatencySec = 5e-6;
/** @} */

/** Link health. */
struct InterconnectConfig
{
    /**
     * Fault model: remaining bandwidth fraction of the slowest ring
     * hop, in (0, 1]. A ring collective is a pipeline over every hop,
     * so one degraded link gates the whole collective; 1.0 = healthy.
     * Point-to-point copies are assumed to route around the bad link.
     */
    double degradedHopFactor = 1.0;
};

/**
 * Collective/point-to-point cost model over NVLink.
 *
 * All-reduce follows the standard ring formulation used by NCCL (and
 * thus by PyTorch DDP): 2(w-1)/w payload traversals at ring bandwidth
 * plus per-step latencies.
 */
class Interconnect
{
  public:
    explicit Interconnect(InterconnectConfig config = InterconnectConfig{});

    /** Ring all-reduce of `bytes` across `world` GPUs; 0 if world <= 1. */
    double allReduceTime(double bytes, int world) const;

    /** One-to-all broadcast of `bytes`. */
    double broadcastTime(double bytes, int world) const;

  private:
    /** Bandwidth available to one ring direction. */
    double ringBandwidth() const;

    InterconnectConfig cfg_;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_INTERCONNECT_HH
