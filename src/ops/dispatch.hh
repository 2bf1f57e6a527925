/**
 * @file
 * Runtime variant selector for the host compute kernels (the op
 * autotuning layer, ROADMAP item 4). ops::gemm / ops::spmm ask the
 * Dispatch singleton which kernel flavour to run for the operands at
 * hand; the choice is keyed on measured shape and sparsity through a
 * deterministic closed-form cost model, so a given workload always
 * picks the same variants on every run and every thread count.
 *
 * Selection contract (documented in DESIGN.md):
 *  1. `GNNMARK_OP_VARIANT` (e.g. "gemm=naive,spmm=vector") pins a
 *     variant per op and wins over everything else — the
 *     reproducibility escape hatch.
 *  2. Otherwise the model decides from shape/sparsity. Because every
 *     variant of an op is bitwise-equal (see cpu_kernels.hh), the
 *     choice affects host wall time only — never results, never the
 *     simulated kernel stream for existing workloads.
 *  3. A one-shot seeded calibration pass runs before the first
 *     decision: it cross-checks every variant pair for bitwise
 *     equality on fixed probe operands (panics on divergence) and
 *     warms the kernels.
 */

#ifndef GNNMARK_OPS_DISPATCH_HH
#define GNNMARK_OPS_DISPATCH_HH

#include <cstdint>

#include "tensor/sparse.hh"

namespace gnnmark {
namespace ops {

/** Host kernel flavours for the dense matmul. */
enum class GemmVariant
{
    Naive, ///< kk-outer memory-accumulating loop with zero-skip
    Tiled, ///< 4x16 register-tiled, vectorized (see cpu_kernels.hh)
};

/** Host kernel flavours for SpMM (format picks the last two). */
enum class SpmmVariant
{
    CsrScalar, ///< edge-outer memory-accumulating loop
    CsrVector, ///< register feature strips, vectorized
    Coo,       ///< row-sorted coordinate stream
    Bell,      ///< blocked-ELL padded slabs
};

const char *gemmVariantName(GemmVariant v);
const char *spmmVariantName(SpmmVariant v);

/** Point-in-time counters for the opstats report / ops.* metrics. */
struct DispatchStats
{
    int64_t gemmNaive = 0;
    int64_t gemmTiled = 0;
    int64_t spmmCsrScalar = 0;
    int64_t spmmCsrVector = 0;
    int64_t spmmCoo = 0;
    int64_t spmmBell = 0;
    bool simd = false;       ///< AVX2 paths active on this host
    bool calibrated = false; ///< one-shot calibration has run
    double calibMs = 0.0;    ///< wall time of the calibration pass
};

class Dispatch
{
  public:
    static Dispatch &instance();

    /**
     * Pick the host variant for op(A)[m,k] x op(B)[k,n].
     * `a_zero_frac` is the sampled zero fraction of (normalised) A —
     * the naive loop's per-element zero-skip beats register tiling
     * once A is mostly zeros (post-ReLU activations).
     */
    GemmVariant chooseGemm(int64_t m, int64_t n, int64_t k,
                           double a_zero_frac);

    /**
     * Pick the host kernel for C = A * B over sparse A stored as
     * `format` with `m` rows, `nnz` entries and `f` output features.
     * COO / blocked-ELL storage pins its kernel; CSR chooses between
     * the scalar and vectorized flavours.
     */
    SpmmVariant chooseSpmm(SparseFormat format, int64_t m, int64_t f,
                           int64_t nnz);

    /**
     * Arm/disarm `ops.*` recording into obs::Metrics. Off by default
     * so variant counters never leak into the full metrics snapshots
     * that gated telemetry baselines diff exactly; `--opstats` and
     * `gnnmark ops` arm it.
     */
    void setMetricsEnabled(bool on);

    DispatchStats stats() const;
    void resetStats();

    /** Re-read GNNMARK_OP_VARIANT (tests). */
    void reloadEnv();

    /**
     * Deterministic strided sample of the zero fraction of `data`
     * (up to 4096 probes, stride chosen from `count` alone).
     */
    static double sampledZeroFraction(const float *data, int64_t count);

  private:
    Dispatch();
    void ensureCalibrated();

    struct Impl;
    Impl *impl_; ///< leaked on purpose (worker threads may outlive exit)
};

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_DISPATCH_HH
