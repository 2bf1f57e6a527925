/**
 * @file
 * Description of a kernel launch handed from the operator layer to the
 * GPU timing model.
 */

#ifndef GNNMARK_SIM_KERNEL_DESC_HH
#define GNNMARK_SIM_KERNEL_DESC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/op_class.hh"
#include "sim/warp_trace.hh"

namespace gnnmark {

/**
 * What a kernel launch is, apart from how its warps are generated:
 * identity, geometry, code shape and memory footprint. A recorded
 * trace stores exactly this part of each launch (trace::LaunchEvent).
 */
struct KernelShape
{
    std::string name;   ///< stable kernel identity (used for sampling)
    OpClass opClass = OpClass::Other;

    int64_t blocks = 1;    ///< grid size in thread blocks
    int warpsPerBlock = 4; ///< block size in warps

    /**
     * Static code footprint in bytes; drives the I-cache model.
     * Heavily unrolled kernels (GEMM, conv, sort) have large bodies.
     */
    int codeBytes = 4096;

    /**
     * Average independent-instruction window for ALU chains; higher
     * values hide ALU latency better (default taken from GpuConfig).
     */
    double aluIlp = 0.0;

    /**
     * Probability that the instruction after a global load consumes it
     * (0 => fully software-pipelined, 1 => pointer chasing). Default
     * taken from GpuConfig.
     */
    double loadDepFraction = 0.0;

    /** Irregular-access kernels may skip L1 under the bypass ablation. */
    bool irregular = false;

    /**
     * (address, bytes) spans the full grid *writes*. The detailed sim
     * only replays a sample of warps, so the device installs these
     * spans into the L2 after the launch to model the write-allocate
     * footprint of the whole kernel (producer -> consumer locality).
     */
    std::vector<std::pair<uint64_t, uint64_t>> outputRanges;

    /**
     * (address, bytes) spans the full grid *reads*. Reads allocate in
     * the L2 as well, but only after the write footprint has claimed
     * its share of the post-launch install budget — inputs must never
     * masquerade as the kernel's write footprint.
     */
    std::vector<std::pair<uint64_t, uint64_t>> inputRanges;

    int64_t totalWarps() const { return blocks * warpsPerBlock; }
};

/**
 * One kernel launch.
 *
 * `trace` is called by the device for the warps it chooses to simulate
 * in detail; it must be a pure function of the global warp id (same id,
 * same trace) so sampling is deterministic. Global warp ids enumerate
 * warps block-major: warp w of block b has id b * warpsPerBlock + w.
 */
struct KernelDesc : KernelShape
{
    /** Per-warp trace generator (see class comment). */
    std::function<void(int64_t warp_id, WarpTraceSink &sink)> trace;

    /**
     * Replay-mode alternative to `trace`: returns a pre-recorded warp
     * trace instead of generating one through a WarpTraceSink. Takes
     * precedence over `trace` when set; used by the trace replayer
     * (src/trace) to feed captured streams back through the
     * cache/pipeline models. Must be a pure function of the warp id,
     * like `trace`, and the returned reference must stay valid for
     * the duration of the launch (the device borrows it — no copy).
     */
    std::function<const WarpTrace &(int64_t warp_id)> replay;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_KERNEL_DESC_HH
