/**
 * @file
 * GPU hardware parameters for the timing model.
 *
 * The default preset models the NVIDIA V100 used in the paper: 80 SMs,
 * 14 TFLOPS fp32 peak, 128 KB combined L1 per SM, 6 MB shared L2,
 * 900 GB/s HBM2, and a 12 KB L0 instruction cache per SM.
 */

#ifndef GNNMARK_SIM_GPU_CONFIG_HH
#define GNNMARK_SIM_GPU_CONFIG_HH

#include <cstdint>
#include <string>

#include "base/units.hh"

namespace gnnmark {

/** Hardware and model parameters for a simulated GPU. */
struct GpuConfig
{
    // --- Compute resources ---
    int numSms = 80;            ///< streaming multiprocessors
    int warpSize = 32;          ///< threads per warp
    int maxWarpsPerSm = 64;     ///< resident warp limit per SM
    int maxBlocksPerSm = 32;    ///< resident block limit per SM
    int issueWidth = 4;         ///< warp instructions issued per SM cycle

    // Execution-port throughput (warp instructions per SM cycle).
    // 64 fp32 lanes => 2 warp-FMA/cycle (14.1 TFLOPS peak at 1.38 GHz).
    int fp32PortsPerCycle = 2;
    int int32PortsPerCycle = 2;
    int lsuPortsPerCycle = 2; ///< global + shared memory instructions
    int sfuPortsPerCycle = 1;
    double clockGhz = 1.38;     ///< SM clock

    // --- Data caches ---
    uint64_t l1SizeBytes = 128 * KiB; ///< combined L1/shared per SM
    int l1Assoc = 4;
    uint64_t l2SizeBytes = 6 * MiB;   ///< device-wide L2
    int l2Assoc = 16;
    int cacheLineBytes = 128;

    // --- Instruction cache ---
    uint64_t l0ISizeBytes = 12 * KiB; ///< per-SM L0 I-cache
    int l0IAssoc = 2;
    int instrBytes = 16;              ///< encoded size per instruction
    int ifetchMissCycles = 16;        ///< L0 miss, served from L1I
    uint64_t l1ISizeBytes = 128 * KiB; ///< per-SM L1 I-cache
    int ifetchColdCycles = 180;       ///< L1I cold miss (L2/DRAM)

    // --- Latencies (cycles) ---
    int aluLatency = 6;        ///< fp32 / int32 dependent-use latency
    int sfuLatency = 14;       ///< transcendental units
    int sharedLatency = 24;    ///< shared-memory dependent-use latency
    int l1HitLatency = 28;
    int l2HitLatency = 190;
    int dramLatency = 430;
    int atomicLatency = 240;   ///< global atomics resolve at the L2
    int barrierCycles = 30;    ///< average wait at a block-wide barrier
    int divergenceReplayCycles = 2; ///< per extra cache line in a request

    // --- Off-chip ---
    double dramBandwidth = 900e9; ///< HBM2 bytes/s
    double pcieBandwidth = 16e9;  ///< host-to-device bytes/s
    double pcieLatencySec = 10e-6;
    double launchOverheadSec = 2.5e-6; ///< host-side dispatch per kernel
    double kernelBaseTimeSec = 1.0e-6; ///< device-side floor per kernel

    // --- Data types ---
    int elemBytes = 4; ///< fp32; the fp16 ablation sets 2

    // --- Model knobs ---
    int detailSampleLimit = 6;      ///< detailed sims per kernel name
    int maxTraceInstrs = 2048;      ///< recorded instrs per sampled warp
    int simSmCount = 1;             ///< SMs simulated in detail
    bool l1BypassIrregular = false; ///< ablation: irregular ops skip L1
    bool h2dCompression = false;    ///< ablation: compress sparse copies
    double aluIlp = 2.0;            ///< default independent-instr window
    double loadDepFraction = 0.6;   ///< default P(next instr uses a load)

    /** The V100 configuration used throughout the paper. */
    static GpuConfig v100();

    /**
     * An A100-like configuration (108 SMs, 192 KB L1, 40 MB L2,
     * 1555 GB/s HBM2e) for architectural-sensitivity studies.
     */
    static GpuConfig a100();

    /** Clock frequency in Hz. */
    double clockHz() const { return clockGhz * 1e9; }
};

/** Ways of the per-SM L1 I-cache, which has no GpuConfig field. */
inline constexpr int kL1IAssoc = 4;

/**
 * "" when GpuDevice can be built from `cfg` and its warp pipeline can
 * run (SM counts, resident warp and block limits, the geometry and a
 * size cap of every cache), else a one-line description of the problem.
 */
std::string validateConfig(const GpuConfig &cfg);

} // namespace gnnmark

#endif // GNNMARK_SIM_GPU_CONFIG_HH
